package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"chaseci/internal/api"
	"chaseci/internal/dataset"
	"chaseci/internal/ffn"
	"chaseci/internal/objstore"
	"chaseci/internal/queue"
	"chaseci/internal/sim"
)

// newCappedManager is dataset.NewLocal with an explicit resolve-cache
// budget, so a test can force LRU evictions.
func newCappedManager(cacheBytes int) *dataset.Manager {
	store := objstore.NewStore(sim.NewClock(), nil, objstore.Config{Replicas: 3})
	for i := 0; i < 3; i++ {
		store.AddOSD(fmt.Sprintf("osd-%d", i), "local", 1e12, 1)
	}
	return dataset.NewManager(store.MountBucket("datasets"), dataset.Config{CacheBytes: cacheBytes})
}

// serveVolume is a noisy field with one bright blob, sized so a flood
// takes a few applications.
func serveVolume(seed uint64) []float32 {
	const d, h, w = 8, 24, 24
	rng := sim.NewRNG(seed)
	data := make([]float32, d*h*w)
	for z := 0; z < d; z++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				dy, dx := float64(y-12), float64(x-12)
				blob := 0.0
				if dy*dy+dx*dx < 40 {
					blob = 4
				}
				data[(z*h+y)*w+x] = float32(blob + rng.NormFloat64())
			}
		}
	}
	return data
}

// freshSegment is the segment path without any sharing: a private copy of
// the source, a freshly built network, in-place normalization, and a float
// mask packed afterwards.
func freshSegment(t *testing.T, data []float32, spec *api.SegmentSpec) ([]byte, ffn.InferenceStats) {
	t.Helper()
	raw := &ffn.Volume{D: 8, H: 24, W: 24, Data: append([]float32(nil), data...)}
	cfg := spec.Net.FFNConfig()
	net, err := ffn.NewNetwork(cfg, spec.NetSeed)
	if err != nil {
		t.Fatal(err)
	}
	var labels *ffn.Volume
	if spec.TrainSteps > 0 {
		labels = thresholdVolume(raw, spec.Threshold)
	}
	seeds := spec.Seeds
	if len(seeds) == 0 {
		stride := spec.SeedStride
		if stride == [3]int{} {
			stride = cfg.FOV
		}
		seeds = ffn.GridSeeds(raw, cfg.FOV, stride, spec.Threshold)
	}
	image := raw.Normalize()
	if spec.TrainSteps > 0 {
		tr := ffn.NewTrainer(net, 0.05, 0.9, spec.NetSeed+1)
		if _, err := tr.TrainOnVolume(image, labels, spec.TrainSteps); err != nil {
			t.Fatal(err)
		}
	}
	mask, stats := net.Segment(image, seeds, spec.MaxSteps)
	return dataset.PackBits(mask.Data), stats
}

// runSegment submits one job and returns its result once it succeeded.
func runSegment(t *testing.T, r *Runner, req *api.JobRequest) api.SegmentResult {
	t.Helper()
	st, err := r.Submit(req, "")
	if err != nil {
		t.Fatal(err)
	}
	if final := waitState(t, r, st.ID, terminal); final.State != api.StateSucceeded {
		t.Fatalf("%s: state %s (%s)", req.Name, final.State, final.Error)
	}
	raw, _, _ := r.Result(st.ID)
	var res api.SegmentResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// checkMask compares a job's mask — inline bits or a stored ref — and
// statistics with the fresh path's.
func checkMask(t *testing.T, r *Runner, name string, res api.SegmentResult, want []byte, stats ffn.InferenceStats) {
	t.Helper()
	if res.Steps != stats.Steps || res.Moves != stats.Moves || res.SeedsUsed != stats.SeedsUsed ||
		res.MaskVoxels != stats.MaskVoxels || res.VoxelsTotal != stats.VoxelsTotal {
		t.Fatalf("%s: stats %+v, fresh path %+v", name, res, stats)
	}
	got := res.MaskBits
	if res.MaskRef != "" {
		enc, err := r.Datasets().GetBytes(res.MaskRef)
		if err != nil {
			t.Fatal(err)
		}
		got = enc[dataset.HeaderSize:]
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: mask differs from the fresh path's", name)
	}
}

// TestSegmentServePathMatchesFreshPath drives ref-mode and inline segment
// jobs through the cached serve path — shared normalized twins, shared
// networks, masks packed by the flood — and requires every mask and
// statistic to equal the fresh path's: on a cold cache, on a hit, on a ref
// whose cache entry was evicted, after a training job on the same (config,
// seed), for int8, and with a segment threshold at the pad probability.
// A concurrent burst at the end shares one network between workers.
func TestSegmentServePathMatchesFreshPath(t *testing.T) {
	// Room for one decoded volume with its twin: each new ref evicts the
	// last.
	ds := newCappedManager(2*4*8*24*24 + 1024)
	r := NewRunnerConfigured(DefaultRegistry(), queue.NewStore(), RunnerConfig{Workers: 4, Datasets: ds})
	t.Cleanup(r.Close)
	vols := [][]float32{serveVolume(1), serveVolume(2)}
	refs := make([]string, len(vols))
	for i, v := range vols {
		info, err := ds.PutVolume(8, 24, 24, v, "")
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = info.ID
	}
	type jobCase struct {
		name string
		vol  int
		spec api.SegmentSpec
	}
	base := api.SegmentSpec{NetSeed: 3, Threshold: 2, MaxSteps: 6, ReturnMask: true}
	with := func(f func(*api.SegmentSpec)) api.SegmentSpec {
		s := base
		f(&s)
		return s
	}
	cases := []jobCase{
		{"cold", 0, base},
		{"hit", 0, base},
		{"other ref", 1, base},
		{"evicted ref", 0, base},
		{"trained", 0, with(func(s *api.SegmentSpec) { s.TrainSteps = 4 })},
		{"untrained after trained", 0, base},
		{"explicit seed, one step", 1, with(func(s *api.SegmentSpec) { s.Seeds = [][3]int{{4, 12, 12}}; s.MaxSteps = 1 })},
		{"int8", 1, with(func(s *api.SegmentSpec) { s.Net = &api.NetConfig{Precision: "int8"} })},
		{"segment prob below pad", 0, with(func(s *api.SegmentSpec) { s.Net = &api.NetConfig{SegmentProb: 0.04} })},
		{"segment prob at pad", 1, with(func(s *api.SegmentSpec) { s.Net = &api.NetConfig{SegmentProb: 0.05} })},
	}
	submit := func(c jobCase, mode api.ResultMode, src api.VolumeSource) api.SegmentResult {
		spec := c.spec
		spec.Source = src
		return runSegment(t, r, &api.JobRequest{Kind: api.KindSegment, Name: c.name, ResultMode: mode, Segment: &spec})
	}
	for _, c := range cases {
		want, stats := freshSegment(t, vols[c.vol], &c.spec)
		ref := api.VolumeSource{Ref: refs[c.vol]}
		checkMask(t, r, c.name+" (ref mode)", submit(c, api.ResultModeRef, ref), want, stats)
		checkMask(t, r, c.name+" (inline result)", submit(c, "", ref), want, stats)
		inline := api.VolumeSource{D: 8, H: 24, W: 24, Data: vols[c.vol]}
		checkMask(t, r, c.name+" (inline source)", submit(c, "", inline), want, stats)
	}

	// The burst submits from parallel clients; the checks run afterwards on
	// the test goroutine.
	ids := make([]string, 16)
	var wg sync.WaitGroup
	for i := range ids {
		c := cases[i%len(cases)]
		spec := c.spec
		spec.Source = api.VolumeSource{Ref: refs[c.vol]}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if st, err := r.Submit(&api.JobRequest{Kind: api.KindSegment, ResultMode: api.ResultModeRef, Segment: &spec}, ""); err == nil {
				ids[i] = st.ID
			}
		}()
	}
	wg.Wait()
	for i, id := range ids {
		c := cases[i%len(cases)]
		if id == "" {
			t.Fatalf("concurrent %s: submit failed", c.name)
		}
		if final := waitState(t, r, id, terminal); final.State != api.StateSucceeded {
			t.Fatalf("concurrent %s: state %s (%s)", c.name, final.State, final.Error)
		}
		raw, _, _ := r.Result(id)
		var res api.SegmentResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		want, stats := freshSegment(t, vols[c.vol], &c.spec)
		checkMask(t, r, c.name+" (concurrent)", res, want, stats)
	}
	assertNoLeaks(t, r)
}

// TestSegmentCancelledBoundedFloodMatchesFreshPath cancels a long bounded
// flood on the shared serve path: the partial mask it returns must be the
// fresh path's mask for the applications that ran.
func TestSegmentCancelledBoundedFloodMatchesFreshPath(t *testing.T) {
	r, _ := newTestRunner(t, DefaultRegistry(), 1)
	data := serveVolume(4)
	info, err := r.Datasets().PutVolume(8, 24, 24, data, "")
	if err != nil {
		t.Fatal(err)
	}
	// Dense grid seeding (about half the in-bounds centers clear the
	// threshold) with an unreachable budget: hundreds of applications,
	// cancelled once the flood is under way.
	spec := api.SegmentSpec{
		Source: api.VolumeSource{Ref: info.ID}, NetSeed: 5, Threshold: 0.01,
		SeedStride: [3]int{1, 1, 1}, MaxSteps: 1 << 30, ReturnMask: true,
	}
	for _, mode := range []api.ResultMode{api.ResultModeRef, ""} {
		s := spec
		st, err := r.Submit(&api.JobRequest{Kind: api.KindSegment, ResultMode: mode, Segment: &s}, "")
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, r, st.ID, func(s api.JobStatus) bool { return s.Stage == "segment" && s.Done > 0 })
		r.Cancel(st.ID)
		if final := waitState(t, r, st.ID, terminal); final.State != api.StateCancelled {
			t.Fatalf("mode %q: state %s, want cancelled", mode, final.State)
		}
		raw, _, _ := r.Result(st.ID)
		var res api.SegmentResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		if res.MaskRef != "" || res.Steps == 0 {
			t.Fatalf("mode %q: cancelled result %+v, want an inline partial mask", mode, res)
		}
		ran := spec
		ran.MaxSteps = res.Steps
		want, stats := freshSegment(t, data, &ran)
		checkMask(t, r, fmt.Sprintf("cancelled, mode %q", mode), res, want, stats)
	}
}
