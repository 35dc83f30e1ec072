package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/dataset"
	"chaseci/internal/ffn"
	"chaseci/internal/merra"
	"chaseci/internal/tensor"
)

// train_ckpt_resume: a closed loop in which every op is a fresh 4-worker
// train_dist run followed by a 2-worker resume of that run's round-4
// checkpoint. It exercises the forward and backward passes and gradient
// averaging in tensor/ffn, and the dataset plane's pinned checkpoint
// writes plus ffn.DecodeCheckpoint reads on resume.
//
// Latency is reported per op (the two jobs' latencies added up), not per
// job: a fresh run takes about twice as long as a resume, and the median
// of a two-mode mix jumps between the modes from run to run.
const (
	trainRounds  = 12
	trainBatch   = 16
	trainEvery   = 4
	freshWorkers = 4
	resumeFrom   = 4 // the checkpoint round a resume starts from
	resumeWorker = 2
	// trainVariants source fields and sampling seeds are cycled through:
	// conv backward skips dead ReLU outputs, so a run's cost depends on its
	// data, and one seed's draw should not set the whole run's figures.
	trainVariants = 4
	// trainNetSeed stays fixed: the weight seed moves a run's cost by up to
	// 1.7x, which would make the workload seed a work-size knob.
	trainNetSeed = 7
)

type trainLoad struct {
	specs []api.TrainDistSpec // the fresh run per variant
	want  []trainRef
	ckpts []string // each variant's latest live round-4 checkpoint
	n     int
}

// trainRef is what a variant's 1-worker reference run ended with.
type trainRef struct {
	losses []float64
	final  string
}

// newTrain draws each variant's source field and sampling seed from the
// workload seed. The network has one residual module, so one op takes
// ~0.2 s on 2 cores and a 30 s window holds the 100 ops a p90 needs.
func newTrain(seed uint64) *trainLoad {
	rng := rand.New(rand.NewPCG(seed, 0x7a1))
	w := &trainLoad{}
	for k := 0; k < trainVariants; k++ {
		w.specs = append(w.specs, api.TrainDistSpec{
			Source:          api.VolumeSource{Synth: &api.SynthSpec{NLon: 36, NLat: 24, NLev: 4, Steps: 6, Seed: rng.Uint64()}},
			Threshold:       130,
			Workers:         freshWorkers,
			Rounds:          trainRounds,
			BatchPerRound:   trainBatch,
			CheckpointEvery: trainEvery,
			Net:             &api.NetConfig{FOV: [3]int{3, 7, 7}, Features: 6, Modules: 1, MoveStep: [3]int{1, 2, 2}},
			NetSeed:         trainNetSeed,
			SampleSeed:      rng.Uint64()>>1 + 1,
		})
	}
	return w
}

func (w *trainLoad) kind() api.Kind { return api.KindTrainDist }
func (w *trainLoad) cluster() bool  { return false }
func (w *trainLoad) tenants() int   { return 1 }

// verify has nothing left to check: drive checks each job as it ends.
func (w *trainLoad) verify(*stack, []op) {}

func (w *trainLoad) freshBody(name string, k, workers int) []byte {
	spec := w.specs[k]
	spec.Workers = workers
	return mustJSON(&api.JobRequest{Kind: api.KindTrainDist, Name: name, TrainDist: &spec})
}

func (w *trainLoad) resumeBody(name string, k int, ckpt string) []byte {
	return mustJSON(&api.JobRequest{Kind: api.KindTrainDist, Name: name, TrainDist: &api.TrainDistSpec{
		Source:     w.specs[k].Source,
		Threshold:  w.specs[k].Threshold,
		Workers:    resumeWorker,
		Rounds:     trainRounds,
		ResumeFrom: ckpt,
	}})
}

// setUp runs every variant at one worker for the references, then one op
// as warm-up.
func (w *trainLoad) setUp(s *stack) error {
	w.want = make([]trainRef, len(w.specs))
	w.ckpts = make([]string, len(w.specs))
	for k := range w.specs {
		name := fmt.Sprintf("ref%d", k)
		r := &jobRec{name: name, body: w.freshBody(name, k, 1)}
		s.runClosed(r, func(raw json.RawMessage) error {
			var res api.TrainDistResult
			if err := json.Unmarshal(raw, &res); err != nil {
				return err
			}
			if len(res.Losses) != trainRounds || res.CheckpointRef == "" {
				return fmt.Errorf("reference ran %d rounds, final checkpoint %q", len(res.Losses), res.CheckpointRef)
			}
			w.want[k] = trainRef{losses: res.Losses, final: res.CheckpointRef}
			return nil
		})
		if r.err != nil {
			return fmt.Errorf("1-worker reference: %w", r.err)
		}
	}
	w.n = 0
	for _, o := range w.drive(s, 0, "w") {
		for _, r := range o {
			if r.err != nil {
				return fmt.Errorf("warm-up: %w", r.err)
			}
		}
	}
	return nil
}

// drive runs ops back to back until d has passed (at least one op). A
// resume is attempted only after its fresh run passed its check.
func (w *trainLoad) drive(s *stack, d time.Duration, prefix string) []op {
	var ops []op
	for end := time.Now().Add(d); len(ops) == 0 || time.Now().Before(end); w.n++ {
		k := w.n % len(w.specs)
		want := w.want[k]
		fresh := &jobRec{name: fmt.Sprintf("%s%d-fresh", prefix, w.n)}
		fresh.body = w.freshBody(fresh.name, k, freshWorkers)
		resume := &jobRec{name: fmt.Sprintf("%s%d-resume", prefix, w.n)}
		var ckpt string
		s.runClosed(fresh, func(raw json.RawMessage) error {
			res, err := checkTrain(raw, want)
			if err != nil {
				return err
			}
			for _, c := range res.Checkpoints {
				if c.Round == resumeFrom {
					ckpt = c.Ref
				}
			}
			if ckpt == "" {
				return fmt.Errorf("no round-%d checkpoint in %v", resumeFrom, res.Checkpoints)
			}
			return nil
		})
		if fresh.err != nil {
			resume.err = errors.New("not run: its fresh run failed")
		} else {
			w.ckpts[k] = ckpt
			resume.body = w.resumeBody(resume.name, k, ckpt)
			s.runClosed(resume, func(raw json.RawMessage) error {
				res, err := checkTrain(raw, want)
				if err == nil && res.StartRound != resumeFrom {
					err = fmt.Errorf("resumed at round %d, want %d", res.StartRound, resumeFrom)
				}
				return err
			})
		}
		ops = append(ops, op{fresh, resume})
	}
	return ops
}

// checkTrain requires a train_dist result to end with the reference's
// loss history and final checkpoint.
func checkTrain(raw []byte, want trainRef) (*api.TrainDistResult, error) {
	var res api.TrainDistResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, err
	}
	if len(res.Losses) != len(want.losses) {
		return nil, fmt.Errorf("%d losses, want %d", len(res.Losses), len(want.losses))
	}
	for i, l := range res.Losses {
		if l != want.losses[i] {
			return nil, fmt.Errorf("loss[%d] = %v, want %v", i, l, want.losses[i])
		}
	}
	if res.CheckpointRef != want.final {
		return nil, fmt.Errorf("final checkpoint %s, want %s", res.CheckpointRef, want.final)
	}
	return &res, nil
}

// replay runs fresh and resumed training through the calls the handler
// makes. DistTrainer.Round draws its samples from unexported state, so the
// replay draws its own FOV windows and makes the calls Round makes:
// ComputeGrads per sample on the workers, AverageGrads, ApplyGrads.
func (w *trainLoad) replay(s *stack, tr *tracer, live []op) (map[string]float64, error) {
	m := s.runner.Datasets()
	for k, spec := range w.specs {
		if w.ckpts[k] == "" {
			return nil, fmt.Errorf("variant %d has no live checkpoint to resume from", k)
		}
		rng := rand.New(rand.NewPCG(spec.SampleSeed, 0x5a))
		job := fmt.Sprintf("r%d-fresh", k)
		root := tr.open("replay.job", job, 0)
		image, labels, err := replaySource(tr, job, root, &spec)
		if err != nil {
			return nil, err
		}
		cfg := ffn.DefaultConfig()
		nc := spec.Net
		cfg.FOV, cfg.Features, cfg.Modules, cfg.MoveStep = nc.FOV, nc.Features, nc.Modules, nc.MoveStep
		var net *ffn.Network
		tr.time("ffn.net_build", job, root, func() { net, err = ffn.NewNetwork(cfg, spec.NetSeed) })
		if err != nil {
			return nil, err
		}
		var t *ffn.DistTrainer
		tr.time("ffn.trainer_build", job, root, func() {
			t, err = ffn.NewDistTrainer(net, 0.05, 0.9, image, labels, spec.SampleSeed, trainBatch, freshWorkers)
		})
		if err != nil {
			return nil, err
		}
		if err := replayRounds(tr, job, root, m, t, image, labels, 0, freshWorkers, rng); err != nil {
			return nil, err
		}
		tr.finish(root)

		job = fmt.Sprintf("r%d-resume", k)
		root = tr.open("replay.job", job, 0)
		if image, labels, err = replaySource(tr, job, root, &spec); err != nil {
			return nil, err
		}
		// The live resumes resolve the same round-4 checkpoint op after
		// op, so after the first it is a cache hit.
		var blob *dataset.Blob
		tr.time("dataset.resolve_hit", job, root, func() { blob, err = m.Resolve(w.ckpts[k]) })
		if err != nil {
			return nil, err
		}
		var ck *ffn.Checkpoint
		tr.time("ffn.ckpt_decode", job, root, func() { ck, err = ffn.DecodeCheckpoint(blob.Raw) })
		if err != nil {
			return nil, err
		}
		tr.time("ffn.trainer_build", job, root, func() { t, err = ffn.ResumeDistTrainer(ck, image, labels, resumeWorker) })
		if err != nil {
			return nil, err
		}
		if err := replayRounds(tr, job, root, m, t, image, labels, resumeFrom, resumeWorker, rng); err != nil {
			return nil, err
		}
		tr.finish(root)
	}
	return map[string]float64{}, nil
}

// replaySource makes the job's input volume and labels as the handler
// does: the synthetic IVT field, thresholded, then normalized in place.
func replaySource(tr *tracer, job string, root int, spec *api.TrainDistSpec) (image, labels *ffn.Volume, err error) {
	sy := spec.Source.Synth
	g := merra.Grid{NLon: sy.NLon, NLat: sy.NLat, NLev: sy.NLev}
	var field *merra.Field3D
	tr.time("merra.ivt", job, root, func() {
		field, err = merra.IVTVolumeCtx(context.Background(), merra.NewGenerator(g, sy.Seed), merra.PressureLevels(g.NLev), sy.Start, sy.Steps, nil)
	})
	if err != nil {
		return nil, nil, err
	}
	raw := &ffn.Volume{D: sy.Steps, H: sy.NLat, W: sy.NLon, Data: field.Data}
	labels = ffn.NewVolume(raw.D, raw.H, raw.W)
	for i, v := range raw.Data {
		if v >= spec.Threshold {
			labels.Data[i] = 1
		}
	}
	tr.time("ffn.normalize", job, root, func() { image = raw.Normalize() })
	return image, labels, nil
}

// replayRounds runs rounds from..trainRounds-1 on t's network and
// optimizer, writing the checkpoints the handler writes.
func replayRounds(tr *tracer, job string, root int, m *dataset.Manager, t *ffn.DistTrainer, image, labels *ffn.Volume, from, workers int, rng *rand.Rand) error {
	fov := t.Net.Config().FOV
	for round := from; round < trainRounds; round++ {
		centers := make([][3]int, trainBatch)
		for i := range centers {
			centers[i] = [3]int{
				fov[0]/2 + rng.IntN(image.D-fov[0]+1),
				fov[1]/2 + rng.IntN(image.H-fov[1]+1),
				fov[2]/2 + rng.IntN(image.W-fov[2]+1),
			}
		}
		grads := make([]*ffn.ParamGrads, trainBatch)
		tr.time("ffn.grads", job, root, func() {
			var wg sync.WaitGroup
			for wi := 0; wi < workers; wi++ {
				lo, hi := wi*trainBatch/workers, (wi+1)*trainBatch/workers
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := lo; i < hi; i++ {
						img := fovTensor(image, fov, centers[i])
						lab := fovTensor(labels, fov, centers[i])
						_, grads[i] = t.Net.ComputeGrads(img, lab)
					}
				}()
			}
			wg.Wait()
		})
		var (
			avg *ffn.ParamGrads
			err error
		)
		tr.time("ffn.reduce", job, root, func() { avg, err = ffn.AverageGrads(grads) })
		if err != nil {
			return err
		}
		tr.time("ffn.apply", job, root, func() { t.Net.ApplyGrads(t.Opt, avg) })
		if done := round + 1; done%trainEvery == 0 || done == trainRounds {
			var payload []byte
			tr.time("ffn.ckpt_encode", job, root, func() { payload = t.CheckpointBytes() })
			var info dataset.Info
			tr.time("dataset.put_ckpt", job, root, func() {
				var enc []byte
				if enc, err = dataset.EncodeCheckpoint(payload); err == nil {
					info, _, err = m.PutPinned(enc, "replay")
				}
			})
			if err != nil {
				return err
			}
			m.Unpin(info.ID)
		}
	}
	return nil
}

// fovTensor copies the FOV centered at c out of v.
func fovTensor(v *ffn.Volume, fov, c [3]int) *tensor.Tensor {
	out := tensor.New(1, fov[0], fov[1], fov[2])
	i := 0
	for z := c[0] - fov[0]/2; z <= c[0]+fov[0]/2; z++ {
		for y := c[1] - fov[1]/2; y <= c[1]+fov[1]/2; y++ {
			for x := c[2] - fov[2]/2; x <= c[2]+fov[2]/2; x++ {
				out.Data[i] = v.At(z, y, x)
				i++
			}
		}
	}
	return out
}
