package ffn

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"chaseci/internal/parallel"
)

// denseReference is the bounded flood written the straightforward way: a
// volume-sized canvas at the pad logit, seeds clamped to the seed logit, a
// FIFO of FOV centers under the step budget with one fresh Apply per
// center, and a full-volume threshold. The pooled, touched-region bounded
// flood must reproduce it bit for bit.
func denseReference(net *Network, img *Volume, seeds [][3]int, maxSteps int) ([]float32, InferenceStats) {
	cfg := net.cfg
	stats := InferenceStats{VoxelsTotal: img.Size()}
	key := func(p fovPos) int { return (p.z*img.H+p.y)*img.W + p.x }
	canvas := make([]float32, img.Size())
	for i := range canvas {
		canvas[i] = logit(cfg.PadProb)
	}
	claimed := make(map[int]bool)
	var queue []fovPos
	for _, s := range seeds {
		p := fovPos{s[0], s[1], s[2]}
		if cfg.fovInBounds(img, p.z, p.y, p.x) && !claimed[key(p)] {
			claimed[key(p)] = true
			queue = append(queue, p)
			canvas[key(p)] = logit(cfg.SeedProb)
			stats.SeedsUsed++
		}
	}
	pom := net.SeedPOM()
	fov := cfg.FOV
	for len(queue) > 0 && stats.Steps < maxSteps {
		p := queue[0]
		queue = queue[1:]
		out := net.Apply(extractFOV(img, fov, p.z, p.y, p.x), pom).Data
		mergeCore(canvas, img.H, img.W, fov, out, p.z, p.y, p.x)
		stats.Steps++
		for _, off := range cfg.moveOffsets() {
			if out[((fov[0]/2+off[0])*fov[1]+fov[1]/2+off[1])*fov[2]+fov[2]/2+off[2]] < logit(cfg.MoveProb) {
				continue
			}
			q := fovPos{p.z + off[0], p.y + off[1], p.x + off[2]}
			if cfg.fovInBounds(img, q.z, q.y, q.x) && !claimed[key(q)] {
				claimed[key(q)] = true
				queue = append(queue, q)
				stats.Moves++
			}
		}
	}
	mask := make([]float32, img.Size())
	for i, v := range canvas {
		if v >= logit(cfg.SegmentProb) {
			mask[i] = 1
			stats.MaskVoxels++
		}
	}
	return mask, stats
}

func sameMask(t *testing.T, what string, got *Volume, want []float32) {
	t.Helper()
	for i := range want {
		if got.Data[i] != want[i] {
			t.Fatalf("%s: voxel %d = %v, want %v", what, i, got.Data[i], want[i])
		}
	}
}

// TestSegmentBoundedMatchesDenseReference pins the bounded flood against
// denseReference across budgets (partial through complete), a threshold at
// or below the pad probability (every untouched voxel is set), a seed
// probability below the pad probability, and back-to-back volumes of
// different sizes, so any state a flood left in the pooled buffers shows.
func TestSegmentBoundedMatchesDenseReference(t *testing.T) {
	big := synthVolume(3, 7, 22, 24).Normalize()
	small := synthVolume(4, 5, 12, 13).Normalize()
	seedsFor := func(v *Volume) [][3]int {
		s := GridSeeds(v, [3]int{3, 7, 7}, [3]int{2, 5, 5}, 0.3)
		// A duplicate and an out-of-bounds seed must be skipped.
		return append(s, s[0], [3]int{0, 0, 0})
	}
	for _, tc := range []struct {
		name                       string
		segProb, padProb, seedProb float32
	}{
		{"default", 0.6, 0.05, 0.95},
		{"segment below pad", 0.03, 0.05, 0.95},
		{"segment equals pad", 0.05, 0.05, 0.95},
		{"seed below pad", 0.02, 0.05, 0.01},
	} {
		cfg := smallConfig()
		cfg.MoveProb = 0.5
		cfg.SegmentProb, cfg.PadProb, cfg.SeedProb = tc.segProb, tc.padProb, tc.seedProb
		net, err := NewNetwork(cfg, 9)
		if err != nil {
			t.Fatal(err)
		}
		for _, img := range []*Volume{big, small, big} {
			seeds := seedsFor(img)
			for _, budget := range []int{1, 2, 7, 40, 1 << 20} {
				want, wantStats := denseReference(net, img, seeds, budget)
				got, stats := net.Segment(img, seeds, budget)
				what := fmt.Sprintf("%s, %dx%dx%d, budget %d", tc.name, img.D, img.H, img.W, budget)
				if stats != wantStats {
					t.Fatalf("%s: stats %+v, want %+v", what, stats, wantStats)
				}
				sameMask(t, what, got, want)
			}
		}
	}
}

// TestSegmentBoundedCancelledLeavesPoolClean cancels a bounded flood from
// its progress callback: the partial mask must be the reference flood of
// the applications that ran, and the next flood on the same pooled state
// must be unaffected.
func TestSegmentBoundedCancelledLeavesPoolClean(t *testing.T) {
	img := synthVolume(3, 7, 22, 24).Normalize()
	cfg := smallConfig()
	cfg.MoveProb = 0.5
	net, err := NewNetwork(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	seeds := GridSeeds(img, cfg.FOV, [3]int{1, 2, 2}, -10)
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		mask, stats, err := net.SegmentCtx(ctx, img, seeds, 1<<20, func(int) { cancel() })
		cancel()
		if err == nil || stats.Steps != progressEvery {
			t.Fatalf("cancelled flood: err %v after %d steps, want cancellation after %d", err, stats.Steps, progressEvery)
		}
		want, wantStats := denseReference(net, img, seeds, progressEvery)
		if stats != wantStats {
			t.Fatalf("cancelled flood stats %+v, want %+v", stats, wantStats)
		}
		sameMask(t, "cancelled flood", mask, want)

		want, wantStats = denseReference(net, img, seeds, 5)
		mask, stats = net.Segment(img, seeds, 5)
		if stats != wantStats {
			t.Fatalf("flood after a cancel: stats %+v, want %+v", stats, wantStats)
		}
		sameMask(t, "flood after a cancel", mask, want)
	}
}

// TestSegmentBitsPacksSegmentCtxMask pins the packed mask to SegmentCtx's
// float mask (LSB-first, zero padding bits) on both flood paths, with a
// voxel count that is not a multiple of 8.
func TestSegmentBitsPacksSegmentCtxMask(t *testing.T) {
	img := synthVolume(6, 5, 11, 13).Normalize()
	cfg := smallConfig()
	cfg.MoveProb = 0.5
	net, err := NewNetwork(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	seeds := GridSeeds(img, cfg.FOV, [3]int{1, 3, 3}, -10)
	for _, maxSteps := range []int{0, 3} {
		bits, stats, err := net.SegmentBits(context.Background(), img, seeds, maxSteps, nil)
		if err != nil {
			t.Fatal(err)
		}
		mask, _ := net.Segment(img, seeds, maxSteps)
		want := make([]byte, (len(mask.Data)+7)/8)
		for i, v := range mask.Data {
			if v != 0 {
				want[i/8] |= 1 << (i % 8)
			}
		}
		if !bytes.Equal(bits, want) || stats.MaskVoxels == 0 {
			t.Fatalf("maxSteps %d: packed mask differs from SegmentCtx's (mask voxels %d)", maxSteps, stats.MaskVoxels)
		}
	}
}

// TestSegmentSharedNetworkConcurrent runs many floods at once on one
// prepared network, f32 and int8, bounded and unbounded: every mask and
// every statistic must equal a fresh network's. Run it under -race.
func TestSegmentSharedNetworkConcurrent(t *testing.T) {
	prev := parallel.SetWorkers(2)
	defer parallel.SetWorkers(prev)
	img := synthVolume(3, 7, 22, 24).Normalize()
	for _, prec := range []Precision{PrecisionF32, PrecisionInt8} {
		cfg := smallConfig()
		cfg.MoveProb = 0.5
		cfg.Precision = prec
		shared, err := NewNetwork(cfg, 12)
		if err != nil {
			t.Fatal(err)
		}
		shared.PrepareInference()
		type want struct {
			bits  []byte
			stats InferenceStats
		}
		seedSets := [][][3]int{
			GridSeeds(img, cfg.FOV, [3]int{2, 4, 4}, 0.5),
			{{3, 10, 12}},
		}
		budgets := []int{0, 1, 6}
		wants := make(map[[2]int]want)
		for si, seeds := range seedSets {
			for _, b := range budgets {
				fresh, _ := NewNetwork(cfg, 12)
				bits, stats, _ := fresh.SegmentBits(context.Background(), img, seeds, b, nil)
				wants[[2]int{si, b}] = want{bits, stats}
			}
		}
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				si, b := g%len(seedSets), budgets[g%len(budgets)]
				w := wants[[2]int{si, b}]
				for rep := 0; rep < 3; rep++ {
					bits, stats, err := shared.SegmentBits(context.Background(), img, seedSets[si], b, nil)
					if err != nil || stats != w.stats || !bytes.Equal(bits, w.bits) {
						errs <- fmt.Errorf("%s goroutine %d (seeds %d, budget %d): err %v, stats %+v, want %+v",
							prec, g, si, b, err, stats, w.stats)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

// TestConfigValidateCaps covers the geometry caps Validate owns for request
// overrides and model files alike.
func TestConfigValidateCaps(t *testing.T) {
	for name, mut := range map[string]func(*Config){
		"fov over cap":       func(c *Config) { c.FOV = [3]int{MaxFOV + 2, 7, 7} },
		"features over cap":  func(c *Config) { c.Features = MaxFeatures + 1 },
		"modules over cap":   func(c *Config) { c.Modules = MaxModules + 1 },
		"negative move step": func(c *Config) { c.MoveStep = [3]int{-1, 2, 2} },
		"move step over cap": func(c *Config) { c.MoveStep = [3]int{1, MaxFOV + 1, 2} },
		"flood batch cap":    func(c *Config) { c.FloodBatch = MaxFloodBatch + 1 },
		"scratch budget": func(c *Config) {
			c.FOV, c.Features, c.FloodBatch = [3]int{MaxFOV, MaxFOV, MaxFOV}, MaxFeatures, MaxFloodBatch
		},
	} {
		cfg := smallConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	cfg := smallConfig()
	cfg.FOV, cfg.Features, cfg.Modules = [3]int{MaxFOV, 7, 7}, MaxFeatures, MaxModules
	if err := cfg.Validate(); err != nil {
		t.Errorf("config at the caps rejected: %v", err)
	}
}

// TestLoadRejectsHugeModuleCount is a regression for a fuzzed model header
// claiming ~1e9 residual modules, which used to build (and hang) before
// failing: Load must reject it from the header alone.
func TestLoadRejectsHugeModuleCount(t *testing.T) {
	net, err := NewNetwork(smallConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	enc := net.SaveBytes()
	// Header: 8 magic bytes, then int32 FOV[3], Features, Modules, ...
	enc[24], enc[25], enc[26], enc[27] = 0xcd, 0xcc, 0x4c, 0x3f // 1061997773 LE
	done := make(chan error, 1)
	go func() {
		_, err := LoadBytes(enc)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("model claiming 1061997773 modules loaded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Load still running after 5s on a model claiming 1061997773 modules")
	}
}
