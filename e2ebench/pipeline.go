package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/connect"
	"chaseci/internal/ffn"
	"chaseci/internal/merra"
)

// pipeline_flood: a closed loop of overlapped pipeline jobs — synthetic
// IVT, full flood-fill segmentation and CONNECT labelling per time slab.
// The kernels do the work and there are no refs, so a set-up, cache or
// serving change must show no change here, and a kernel or stage-overlap
// change shows only here.
const (
	// pipeVariants synthetic fields are cycled through, so one seed's
	// flood extent does not set the whole run's figures.
	pipeVariants = 4
	pipeReplay   = 2 // replay passes over the variants in a traced run
)

type pipeLoad struct {
	specs []*api.PipelineSpec
	want  [][]byte // the sequential reference result per variant
	n     int
}

// pipeSpec is the pipeline_overlapped geometry of cmd/benchjson with the
// synthetic field's seed drawn from the workload seed. The network seed
// stays 0: an untrained network's flood extent swings by 20x between
// weight seeds, which would turn the workload seed into a work-size knob.
func pipeSpec(synthSeed uint64) *api.PipelineSpec {
	return &api.PipelineSpec{
		Synth:      api.SynthSpec{NLon: 72, NLat: 48, NLev: 24, Steps: 12, Seed: synthSeed},
		SlabSteps:  3,
		Threshold:  120,
		Net:        &api.NetConfig{FOV: [3]int{3, 9, 9}, Features: 6, MoveProb: 0.6},
		SeedStride: [3]int{1, 4, 4},
	}
}

func newPipeline(seed uint64) *pipeLoad {
	rng := rand.New(rand.NewPCG(seed, 0x919e))
	w := &pipeLoad{}
	for k := 0; k < pipeVariants; k++ {
		w.specs = append(w.specs, pipeSpec(rng.Uint64()))
	}
	return w
}

func (w *pipeLoad) kind() api.Kind { return api.KindPipeline }
func (w *pipeLoad) cluster() bool  { return false }
func (w *pipeLoad) tenants() int   { return 1 }

// verify has nothing left to check: drive checks each job as it ends.
func (w *pipeLoad) verify(*stack, []op) {}

func (w *pipeLoad) body(name string, k int, sequential bool) []byte {
	spec := *w.specs[k]
	spec.Sequential = sequential
	return mustJSON(&api.JobRequest{Kind: api.KindPipeline, Name: name, Pipeline: &spec})
}

// setUp runs every variant once with sequential: true for the reference,
// then one overlapped job as warm-up.
func (w *pipeLoad) setUp(s *stack) error {
	w.want = make([][]byte, len(w.specs))
	for k := range w.specs {
		r := &jobRec{name: fmt.Sprintf("ref%d", k), body: w.body(fmt.Sprintf("ref%d", k), k, true)}
		s.runClosed(r, func(raw json.RawMessage) error {
			w.want[k] = raw
			return nil
		})
		if r.err != nil {
			return fmt.Errorf("sequential reference: %w", r.err)
		}
	}
	w.n = 0
	for _, o := range w.drive(s, 0, "w") {
		if err := o[0].err; err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// drive runs jobs back to back until d has passed (at least one job).
func (w *pipeLoad) drive(s *stack, d time.Duration, prefix string) []op {
	var ops []op
	for end := time.Now().Add(d); len(ops) == 0 || time.Now().Before(end); {
		k := w.n % len(w.specs)
		name := fmt.Sprintf("%s%d", prefix, w.n)
		w.n++
		r := &jobRec{name: name, body: w.body(name, k, false)}
		s.runClosed(r, func(raw json.RawMessage) error { return checkPipeline(raw, w.want[k]) })
		ops = append(ops, op{r})
	}
	return ops
}

// checkPipeline compares an overlapped run's result with the sequential
// reference; the two must be identical apart from the mode flag.
func checkPipeline(got, want []byte) error {
	var g, r api.PipelineResult
	if err := json.Unmarshal(got, &g); err != nil {
		return err
	}
	if err := json.Unmarshal(want, &r); err != nil {
		return err
	}
	if g.Sequential {
		return errors.New("overlapped job reports sequential mode")
	}
	r.Sequential = false
	if !reflect.DeepEqual(g, r) {
		return fmt.Errorf("result differs from the sequential reference (seg_steps %d vs %d, objects %d vs %d)",
			g.SegSteps, r.SegSteps, g.Objects, r.Objects)
	}
	if g.SlabsDone != g.Slabs || g.Slabs == 0 {
		return fmt.Errorf("%d of %d slabs done", g.SlabsDone, g.Slabs)
	}
	return nil
}

// replay runs each variant's slabs through the stage calls the handler
// makes, in order, without overlap.
func (w *pipeLoad) replay(s *stack, tr *tracer, live []op) (map[string]float64, error) {
	ctx := context.Background()
	var steps, stageSums []float64
	var flops float64
	for pass := 0; pass < pipeReplay; pass++ {
		for k, spec := range w.specs {
			job := fmt.Sprintf("r%d-%d", pass, k)
			root := tr.open("replay.job", job, 0)
			var stageNs int64
			stage := func(name string, f func()) {
				stageNs += tr.time(name, job, root, f)
			}
			cfg := ffn.DefaultConfig()
			cfg.FOV, cfg.Features, cfg.MoveProb = spec.Net.FOV, spec.Net.Features, spec.Net.MoveProb
			flops = convFlops(cfg)
			var (
				net *ffn.Network
				err error
			)
			tr.time("ffn.net_build", job, root, func() { net, err = ffn.NewNetwork(cfg, spec.NetSeed) })
			if err != nil {
				return nil, err
			}
			sy := spec.Synth
			g := merra.Grid{NLon: sy.NLon, NLat: sy.NLat, NLev: sy.NLev}
			gen := merra.NewGenerator(g, sy.Seed)
			levels := merra.PressureLevels(g.NLev)
			jobSteps := 0
			for start := sy.Start; start < sy.Start+sy.Steps; start += spec.SlabSteps {
				n := min(spec.SlabSteps, sy.Start+sy.Steps-start)
				var field *merra.Field3D
				stage("merra.ivt", func() { field, err = merra.IVTVolumeCtx(ctx, gen, levels, start, n, nil) })
				if err != nil {
					return nil, err
				}
				raw := &ffn.Volume{D: n, H: g.NLat, W: g.NLon, Data: field.Data}
				var (
					seeds [][3]int
					mask  *ffn.Volume
					stats ffn.InferenceStats
				)
				stage("ffn.seeds", func() { seeds = ffn.GridSeeds(raw, cfg.FOV, spec.SeedStride, spec.Threshold) })
				stage("ffn.normalize", func() { raw = raw.Normalize() })
				stage("ffn.segment", func() { mask, stats, err = net.SegmentCtx(ctx, raw, seeds, 0, nil) })
				if err != nil {
					return nil, err
				}
				jobSteps += stats.Steps
				stage("connect.label", func() {
					var res *connect.Result
					res, err = connect.LabelCtx(ctx, connect.FromMask(mask.D, mask.H, mask.W, mask.Data), connect.Conn26, spec.MinVoxels, nil)
					if err == nil {
						connect.Summarize(res)
					}
				})
				if err != nil {
					return nil, err
				}
			}
			tr.finish(root)
			steps = append(steps, float64(jobSteps))
			stageSums = append(stageSums, float64(stageNs)/1e6)
		}
	}
	overlap := 0.0
	if h := mean(perJobMs(tr.snapshot(), "service.handler")); h > 0 {
		overlap = mean(stageSums) / h
	}
	return map[string]float64{
		"ffn.flood_steps":           median(steps),
		"tensor.conv_gflop_per_job": median(steps) * flops / 1e9,
		"service.pipeline_overlap":  overlap,
	}, nil
}
