package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/dataset"
	"chaseci/internal/ffn"
	"chaseci/internal/sched"
)

// serve_segment_ref: open-loop arrivals of 64^3 ref-mode segment jobs, one
// network step each, on the cluster runner. Per-job set-up dominates such a
// job, so this is the workload on which the gateway, admission, fair queue,
// cluster dispatch, placement, resolve hits and misses, and mask writes
// show.
const (
	serveRate = 200 // arrivals per second: under half the ~450/s knee
	volDim    = 64
	hotRefs   = 8
	// coldRefs volumes decode to 132 MiB, more than the 128 MiB resolve
	// cache; walked in a fixed cyclic order, every cold arrival misses an
	// LRU cache smaller than the pool.
	coldRefs     = 132
	hotShare     = 0.9
	serveTenants = 4
	warmArrivals = 50
	// statusLag delays a job's first status poll: nearly every job is
	// done by then, so the client polls about once per job.
	statusLag     = 20 * time.Millisecond
	seedThreshold = 60 // grid-seed threshold on the raw volumes
	serveReplay   = 64 // jobs replayed in a traced run
)

const serveInterval = time.Second / serveRate

// arrivals is the seeded stream of refs the serve workload's arrivals pick:
// each arrival picks a hot ref with probability hotShare, else the next
// ref of a seeded permutation of the cold pool.
type arrivals struct {
	rng  *rand.Rand
	perm []int
	cold int
}

func newArrivals(seed uint64) *arrivals {
	rng := rand.New(rand.NewPCG(seed, 0xa441))
	return &arrivals{rng: rng, perm: rng.Perm(coldRefs)}
}

// next returns the ref index (hot refs first, then the cold pool) of the
// next arrival and whether it is hot.
func (a *arrivals) next() (int, bool) {
	if a.rng.Float64() < hotShare {
		return a.rng.IntN(hotRefs), true
	}
	i := hotRefs + a.perm[a.cold%coldRefs]
	a.cold++
	return i, false
}

// genVolume makes ref idx's 64^3 volume: three Gaussian blobs over uniform
// background noise. Separable blobs keep generation to a few ms a volume.
func genVolume(seed uint64, idx int) []float32 {
	rng := rand.New(rand.NewPCG(seed, uint64(idx)+1))
	const n = volDim
	data := make([]float32, n*n*n)
	for i := range data {
		data[i] = float32(20 * rng.Float64())
	}
	for b := 0; b < 3; b++ {
		amp := 80 + 120*rng.Float64()
		var g [3][n]float64
		for a := range g {
			c, sigma := 8+48*rng.Float64(), 3+6*rng.Float64()
			for i := range g[a] {
				d := (float64(i) - c) / sigma
				g[a][i] = math.Exp(-d * d / 2)
			}
		}
		for z := 0; z < n; z++ {
			for y := 0; y < n; y++ {
				gzy := amp * g[0][z] * g[1][y]
				row := data[(z*n+y)*n : (z*n+y+1)*n]
				for x := range row {
					row[x] += float32(gzy * g[2][x])
				}
			}
		}
	}
	return data
}

// serveRef is one uploaded volume and the output its jobs must produce.
type serveRef struct {
	id     string
	seed   [3]int // the job's explicit flood seed
	maskID string // content address of the expected mask
	bits   []byte // dataset.PackBits of the expected mask
}

type serveLoad struct {
	seed    uint64
	netSeed uint64
	cfg     ffn.Config
	refs    []serveRef
	stream  *arrivals
	n       int // arrivals taken from stream
	hot     []bool
	pending []*serveRef // the refs of the last window's jobs, for verify
}

func newServe(seed uint64) *serveLoad {
	return &serveLoad{seed: seed, netSeed: seed*2 + 1, cfg: ffn.DefaultConfig()}
}

func (w *serveLoad) kind() api.Kind { return api.KindSegment }
func (w *serveLoad) cluster() bool  { return true }
func (w *serveLoad) tenants() int   { return serveTenants }

// setUp uploads every volume, computes each one's reference mask with a
// direct Segment on the decoded, normalized volume, and warms up.
func (w *serveLoad) setUp(s *stack) error {
	w.stream, w.n, w.hot = newArrivals(w.seed), 0, nil
	net, err := ffn.NewNetwork(w.cfg, w.netSeed)
	if err != nil {
		return err
	}
	w.refs = make([]serveRef, hotRefs+coldRefs)
	for i := range w.refs {
		enc, err := dataset.EncodeVolume(volDim, volDim, volDim, genVolume(w.seed, i))
		if err != nil {
			return err
		}
		var info dataset.Info
		if _, err := s.call(s.submitC, "POST", "/v1/datasets", "", enc, &info); err != nil {
			return fmt.Errorf("upload volume %d: %w", i, err)
		}
		blob, err := dataset.Decode(enc)
		if err != nil {
			return err
		}
		w.refs[i], err = reference(net, info.ID, &ffn.Volume{D: blob.D, H: blob.H, W: blob.W, Data: blob.Data})
		if err != nil {
			return err
		}
	}
	warm := w.drive(s, warmArrivals*serveInterval, "w")
	w.verify(s, warm)
	for _, o := range warm {
		if err := o[0].err; err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// reference picks the volume's flood seed the way the handler's grid
// seeding would (first lattice point over the threshold, before
// normalization) and segments it directly. vol is normalized in place.
func reference(net *ffn.Network, id string, vol *ffn.Volume) (serveRef, error) {
	fov := net.Config().FOV
	sd := [3]int{vol.D / 2, vol.H / 2, vol.W / 2}
	if seeds := ffn.GridSeeds(vol, fov, fov, seedThreshold); len(seeds) > 0 {
		sd = seeds[0]
	}
	mask, _ := net.Segment(vol.Normalize(), [][3]int{sd}, 1)
	enc, err := dataset.EncodeMask(mask.D, mask.H, mask.W, mask.Data)
	if err != nil {
		return serveRef{}, err
	}
	return serveRef{id: id, seed: sd, maskID: dataset.ID(enc), bits: enc[dataset.HeaderSize:]}, nil
}

func (w *serveLoad) body(name string, ref *serveRef) []byte {
	return mustJSON(&api.JobRequest{
		Kind:       api.KindSegment,
		Name:       name,
		ResultMode: api.ResultModeRef,
		Segment: &api.SegmentSpec{
			Source:     api.VolumeSource{Ref: ref.id},
			NetSeed:    w.netSeed,
			Seeds:      [][3]int{ref.seed},
			MaxSteps:   1,
			ReturnMask: true,
		},
	})
}

// drive sends the window's arrivals on a fixed-interval schedule and
// waits for every job to finish. One goroutine keeps the schedule; one
// sender per submit connection posts; one poller per fetch connection
// waits for each job's terminal status. Results are fetched and checked
// afterwards, by verify, so the window's load is the arrivals alone.
func (w *serveLoad) drive(s *stack, d time.Duration, prefix string) []op {
	n := int(d / serveInterval)
	recs := make([]*jobRec, n)
	refs := make([]*serveRef, n)
	for i := range recs {
		ri, hot := w.stream.next()
		w.hot = append(w.hot, hot)
		refs[i] = &w.refs[ri]
		name := fmt.Sprintf("%s%d", prefix, w.n)
		w.n++
		recs[i] = &jobRec{name: name, tenant: i % serveTenants, body: w.body(name, refs[i])}
	}

	// Both queues hold the whole window, so neither the schedule keeper
	// nor a sender ever blocks on a slower stage behind it.
	due := make(chan int, n)
	submitted := make(chan int, n)
	start := time.Now().Add(time.Millisecond)
	go func() {
		defer close(due)
		for i := range recs {
			at := start.Add(time.Duration(i) * serveInterval)
			recs[i].due = at.UnixNano()
			time.Sleep(time.Until(at))
			due <- i
		}
	}()
	var senders, pollers sync.WaitGroup
	for k := 0; k < conns(s.submitC); k++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := range due {
				s.submit(recs[i], true)
				submitted <- i
			}
		}()
	}
	for k := 0; k < conns(s.fetchC); k++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for i := range submitted {
				time.Sleep(time.Until(time.Unix(0, recs[i].sent).Add(statusLag)))
				s.awaitStatus(recs[i])
			}
		}()
	}
	senders.Wait()
	close(submitted)
	pollers.Wait()

	ops := make([]op, n)
	for i, r := range recs {
		ops[i] = op{r}
	}
	w.pending = refs
	return ops
}

// conns is the connection cap of one of the stack's clients.
func conns(c *http.Client) int {
	return c.Transport.(*http.Transport).MaxConnsPerHost
}

// verify fetches every job's result and mask and checks them, on the
// fetch connections.
func (w *serveLoad) verify(s *stack, ops []op) {
	idx := make(chan int, len(ops)) // holds every index: filled before the workers start
	for i := range ops {
		idx <- i
	}
	close(idx)
	var wg sync.WaitGroup
	for k := 0; k < conns(s.fetchC); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				w.check(s, ops[i][0], w.pending[i])
			}
		}()
	}
	wg.Wait()
	w.pending = nil
}

// check fetches one job's result and mask and compares them with the
// reference.
func (w *serveLoad) check(s *stack, r *jobRec, ref *serveRef) {
	raw := s.fetchResult(r)
	if r.err != nil {
		return
	}
	var res api.SegmentResult
	if err := json.Unmarshal(raw, &res); err != nil {
		r.err = fmt.Errorf("check %s: %w", r.id, err)
		return
	}
	if !dataset.ValidID(res.MaskRef) {
		r.err = fmt.Errorf("check %s: mask_ref %q is not a dataset id", r.id, res.MaskRef)
		return
	}
	enc, err := s.call(s.fetchC, "GET", "/v1/datasets/"+res.MaskRef, s.tokens[r.tenant], nil, nil)
	if err != nil {
		r.err = fmt.Errorf("mask %s: %w", r.id, err)
		return
	}
	if err := checkMask(res, enc, ref); err != nil {
		r.err = fmt.Errorf("check %s: %w", r.id, err)
	}
}

// checkMask compares a segment job's result and its fetched mask encoding
// with the reference.
func checkMask(res api.SegmentResult, enc []byte, want *serveRef) error {
	if res.MaskRef != want.maskID {
		return fmt.Errorf("mask_ref %s, want %s", res.MaskRef, want.maskID)
	}
	if dataset.ID(enc) != res.MaskRef {
		return errors.New("fetched mask does not hash to its mask_ref")
	}
	kind, d, h, wd, err := dataset.DecodeHeader(enc)
	if err != nil {
		return err
	}
	if kind != dataset.KindMask || d != volDim || h != volDim || wd != volDim {
		return fmt.Errorf("fetched %s %dx%dx%d, want a %d^3 mask", kind, d, h, wd, volDim)
	}
	if !bytes.Equal(enc[dataset.HeaderSize:], want.bits) {
		return errors.New("mask bits differ from the direct Segment reference")
	}
	return nil
}

// replay re-runs a sample of the schedule's next arrivals through the
// handler's calls, and times placement on a replica of the fabric. The
// sample continues the schedule, so its cold refs are the least recently
// resolved ones: LRU misses, as in the window.
func (w *serveLoad) replay(s *stack, tr *tracer, live []op) (map[string]float64, error) {
	m := s.runner.Datasets()
	fab := sched.DefaultFabric()
	placer := sched.New(fab)
	ctx := context.Background()
	hot := 0
	for _, h := range w.hot[len(w.hot)-len(live):] {
		if h {
			hot++
		}
	}
	var steps []float64
	for k := 0; k < serveReplay; k++ {
		ri, isHot := w.stream.next()
		ref := &w.refs[ri]
		job := fmt.Sprintf("r%d", k)
		owner := fmt.Sprintf("tenant%d@ucsd.edu", k%serveTenants)

		root := tr.open("replay.job", job, 0)
		var (
			blob *dataset.Blob
			err  error
		)
		resolve := "dataset.resolve_miss"
		if isHot {
			resolve = "dataset.resolve_hit"
		}
		tr.time(resolve, job, root, func() { blob, err = m.Resolve(ref.id) })
		if err != nil {
			return nil, err
		}
		var data []float32
		tr.time("dataset.clone", job, root, func() { data = blob.CloneData() })
		vol := &ffn.Volume{D: blob.D, H: blob.H, W: blob.W, Data: data}
		var net *ffn.Network
		tr.time("ffn.net_build", job, root, func() { net, err = ffn.NewNetwork(w.cfg, w.netSeed) })
		if err != nil {
			return nil, err
		}
		tr.time("ffn.normalize", job, root, func() { vol = vol.Normalize() })
		var (
			mask  *ffn.Volume
			stats ffn.InferenceStats
		)
		tr.time("ffn.segment", job, root, func() {
			mask, stats, err = net.SegmentCtx(ctx, vol, [][3]int{ref.seed}, 1, nil)
		})
		if err != nil {
			return nil, err
		}
		steps = append(steps, float64(stats.Steps))
		tr.time("dataset.put_mask", job, root, func() { _, err = m.PutMask(mask.D, mask.H, mask.W, mask.Data, owner) })
		if err != nil {
			return nil, err
		}
		tr.finish(root)

		// The client's seed pick: not on the handler's path for a job
		// that names its seed, so it stays outside the replayed job.
		raw := &ffn.Volume{D: blob.D, H: blob.H, W: blob.W, Data: blob.Data}
		tr.time("ffn.seeds", job, 0, func() { ffn.GridSeeds(raw, w.cfg.FOV, w.cfg.FOV, seedThreshold) })

		enc, err := m.GetBytes(ref.id)
		if err != nil {
			return nil, err
		}
		if _, err := fab.Datasets.Put(enc, "anonymous"); err != nil {
			return nil, err
		}
		wl := &sched.Workload{JobID: job, Kind: api.KindSegment, Owner: owner, Refs: []string{ref.id}, Voxels: volDim * volDim * volDim}
		tr.time("sched.place", job, 0, func() {
			if _, err = placer.Place(wl); err == nil {
				placer.Release(wl.JobID)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	flops := median(steps) * convFlops(w.cfg)
	return map[string]float64{
		"dataset.hot_share":         float64(hot) / float64(max(len(live), 1)),
		"ffn.flood_steps":           median(steps),
		"tensor.conv_gflop_per_job": flops / 1e9,
	}, nil
}

// convFlops counts one network application's convolution work from its
// geometry: 2 flops per multiply-add over every output voxel of the FOV,
// for the input conv (image and POM channels in), each residual module's
// two convs, and the 1x1x1 output conv.
func convFlops(cfg ffn.Config) float64 {
	v := float64(cfg.FOV[0] * cfg.FOV[1] * cfg.FOV[2])
	f := float64(cfg.Features)
	perVoxel := 2*2*f*27 + float64(cfg.Modules)*2*(2*f*f*27) + 2*f
	return v * perVoxel
}
