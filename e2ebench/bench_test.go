package main

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"chaseci/internal/api"
	"chaseci/internal/dataset"
	"chaseci/internal/ffn"
)

func picks(seed uint64, n int) ([]int, []bool) {
	a := newArrivals(seed)
	refs, hot := make([]int, n), make([]bool, n)
	for i := range refs {
		refs[i], hot[i] = a.next()
	}
	return refs, hot
}

func TestArrivalsReproduceFromSeed(t *testing.T) {
	const n = 20000
	a, aHot := picks(7, n)
	b, bHot := picks(7, n)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(aHot, bHot) {
		t.Fatal("seed 7 made two different arrival streams")
	}
	c, _ := picks(8, n)
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 made the same arrival stream")
	}

	hot := 0
	var cold []int
	for i, r := range a {
		if aHot[i] != (r < hotRefs) {
			t.Fatalf("arrival %d: ref %d flagged hot=%v", i, r, aHot[i])
		}
		if aHot[i] {
			hot++
		} else {
			cold = append(cold, r)
		}
	}
	if share := float64(hot) / n; math.Abs(share-hotShare) > 0.01 {
		t.Errorf("hot share %.3f, want %.2f +- 0.01", share, hotShare)
	}
	// The cold pool is walked cyclically: every window of coldRefs cold
	// picks holds each cold ref once, so an LRU cache smaller than the pool
	// never holds the next one.
	for start := 0; start+coldRefs <= len(cold); start += coldRefs {
		seen := make(map[int]bool)
		for _, r := range cold[start : start+coldRefs] {
			seen[r] = true
		}
		if len(seen) != coldRefs {
			t.Fatalf("cold picks %d..%d cover %d refs, want %d", start, start+coldRefs, len(seen), coldRefs)
		}
	}
	if coldRefs*volDim*volDim*volDim*4 <= 128<<20 {
		t.Errorf("cold pool decodes to %d bytes, not more than the 128 MiB resolve cache", coldRefs*volDim*volDim*volDim*4)
	}
}

func TestInputsReproduceFromSeed(t *testing.T) {
	if !reflect.DeepEqual(genVolume(3, 5), genVolume(3, 5)) {
		t.Error("genVolume is not a function of (seed, index)")
	}
	if reflect.DeepEqual(genVolume(3, 5), genVolume(4, 5)) || reflect.DeepEqual(genVolume(3, 5), genVolume(3, 6)) {
		t.Error("different (seed, index) made the same volume")
	}
	if !reflect.DeepEqual(newPipeline(9).specs, newPipeline(9).specs) || reflect.DeepEqual(newPipeline(9).specs, newPipeline(10).specs) {
		t.Error("pipeline specs do not follow the seed")
	}
	if !reflect.DeepEqual(newTrain(9).specs, newTrain(9).specs) || reflect.DeepEqual(newTrain(9).specs, newTrain(10).specs) {
		t.Error("train spec does not follow the seed")
	}
	for _, s := range [][]byte{newServe(1).body("x", &serveRef{id: dataset.ID([]byte("v")), seed: [3]int{2, 4, 4}}),
		newPipeline(1).body("x", 0, false), newTrain(1).freshBody("x", 0, 4), newTrain(1).resumeBody("x", 0, dataset.ID([]byte("c")))} {
		var req api.JobRequest
		if err := json.Unmarshal(s, &req); err != nil {
			t.Fatal(err)
		}
		if err := req.Validate(); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: the union counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 5, Parent: 3, Name: "b1", Start: 25, End: 35},
		{ID: 6, Parent: 3, Name: "b2", Start: 40, End: 45},
		{ID: 7, Name: "other", Start: 0, End: 8},
	}
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10 - 5, 4: 30, 5: 10, 6: 5, 7: 8}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	if got := covered(span{Start: 0, End: 10}, nil); got != 0 {
		t.Errorf("no children cover %d", got)
	}
}

func TestPercentilesHaveTenSamplesBeyond(t *testing.T) {
	for _, q := range []float64{0.5, 0.9} {
		accepted := 0
		for n := 1; n <= 400; n++ {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n - i) // distinct, unsorted
			}
			v, err := quantile(xs, q)
			if err != nil {
				if accepted > 0 {
					t.Fatalf("p%g: n=%d refused after n=%d was accepted", 100*q, n, accepted)
				}
				continue
			}
			if accepted == 0 {
				accepted = n
			}
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Fatalf("p%g of %d samples = %v has %d samples beyond it", 100*q, n, v, beyond)
			}
		}
		if want := int(math.Ceil(minBeyond/(1-q))) - 1; accepted == 0 || accepted > want+1 {
			t.Errorf("p%g first accepted at n=%d, want about %d", 100*q, accepted, want)
		}
	}
	if v, _ := quantile([]float64{1, 2, 3, 4}, 0.5); v != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", v)
	}
}

func TestCorruptedOutputFailsCheck(t *testing.T) {
	cfg := ffn.DefaultConfig()
	net, err := ffn.NewNetwork(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	data := genVolume(1, 0)
	ref, err := reference(net, "vol", &ffn.Volume{D: volDim, H: volDim, W: volDim, Data: append([]float32(nil), data...)})
	if err != nil {
		t.Fatal(err)
	}
	// What the handler would store: the same segment on the same volume.
	mask, stats := net.Segment((&ffn.Volume{D: volDim, H: volDim, W: volDim, Data: data}).Normalize(), [][3]int{ref.seed}, 1)
	if stats.MaskVoxels == 0 {
		t.Fatal("reference mask is empty; the check would compare nothing")
	}
	enc, err := dataset.EncodeMask(volDim, volDim, volDim, mask.Data)
	if err != nil {
		t.Fatal(err)
	}
	res := api.SegmentResult{MaskRef: dataset.ID(enc)}
	if err := checkMask(res, enc, &ref); err != nil {
		t.Fatalf("correct mask refused: %v", err)
	}
	bad := append([]byte(nil), enc...)
	bad[len(bad)/2] ^= 1
	if checkMask(res, bad, &ref) == nil {
		t.Error("a flipped mask bit passed the check")
	}
	if checkMask(api.SegmentResult{MaskRef: dataset.ID(bad)}, bad, &ref) == nil {
		t.Error("a corrupted mask under its own content address passed the check")
	}

	want := api.PipelineResult{Slabs: 4, SlabsDone: 4, Steps: 12, Sequential: true, SegSteps: 500, Objects: 7,
		PerSlab: []api.PipelineSlabResult{{Slab: 0, Objects: 7}}}
	got := want
	got.Sequential = false
	wantRaw, gotRaw := mustJSON(want), mustJSON(got)
	if err := checkPipeline(gotRaw, wantRaw); err != nil {
		t.Fatalf("matching pipeline result refused: %v", err)
	}
	got.PerSlab = []api.PipelineSlabResult{{Slab: 0, Objects: 6}}
	if checkPipeline(mustJSON(got), wantRaw) == nil {
		t.Error("a pipeline result with a wrong per-slab count passed the check")
	}

	tref := trainRef{losses: []float64{0.7, 0.6, 0.5}, final: dataset.ID([]byte("ckpt"))}
	tr := api.TrainDistResult{Losses: tref.losses, CheckpointRef: tref.final}
	if _, err := checkTrain(mustJSON(tr), tref); err != nil {
		t.Fatalf("matching train result refused: %v", err)
	}
	tr.Losses = []float64{0.7, 0.6, math.Nextafter(0.5, 1)}
	if _, err := checkTrain(mustJSON(tr), tref); err == nil {
		t.Error("a loss one ulp off passed the check")
	}
	tr.Losses, tr.CheckpointRef = tref.losses, dataset.ID([]byte("other"))
	if _, err := checkTrain(mustJSON(tr), tref); err == nil {
		t.Error("a wrong final checkpoint passed the check")
	}
}
