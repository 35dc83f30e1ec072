package ffn

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"

	"chaseci/internal/parallel"
	"chaseci/internal/tensor"
)

// Volume is a simple (D, H, W) float32 volume used for whole-dataset images,
// label masks, and inference canvases. D is the time axis for the IVT
// workload.
type Volume struct {
	D, H, W int
	Data    []float32
}

// NewVolume allocates a zero volume.
func NewVolume(d, h, w int) *Volume {
	return &Volume{D: d, H: h, W: w, Data: make([]float32, d*h*w)}
}

// At returns the voxel at (z, y, x).
func (v *Volume) At(z, y, x int) float32 { return v.Data[(z*v.H+y)*v.W+x] }

// Set writes the voxel at (z, y, x).
func (v *Volume) Set(z, y, x int, val float32) { v.Data[(z*v.H+y)*v.W+x] = val }

// Size returns the voxel count.
func (v *Volume) Size() int { return v.D * v.H * v.W }

// Normalize scales the volume to zero mean, unit variance in place and
// returns it (standard FFN input conditioning, tensor.ZScore).
func (v *Volume) Normalize() *Volume {
	tensor.ZScore(v.Data, v.Data)
	return v
}

// Normalized returns a normalized copy of the volume, leaving v untouched.
func (v *Volume) Normalized() *Volume {
	out := NewVolume(v.D, v.H, v.W)
	tensor.ZScore(out.Data, v.Data)
	return out
}

// extractFOV copies the FOV centered at (cz, cy, cx) from a volume into a
// (1,D,H,W) tensor. The center must be in-bounds for the full FOV.
func extractFOV(v *Volume, fov [3]int, cz, cy, cx int) *tensor.Tensor {
	out := tensor.New(1, fov[0], fov[1], fov[2])
	extractFOVInto(out, v, fov, cz, cy, cx)
	return out
}

// extractFOVInto copies the FOV centered at (cz, cy, cx) into the caller's
// (1,D,H,W) tensor, allocating nothing.
func extractFOVInto(out *tensor.Tensor, v *Volume, fov [3]int, cz, cy, cx int) {
	extractFOVIntoSlice(out.Data, v, fov, cz, cy, cx)
}

// extractFOVIntoSlice copies the FOV centered at (cz, cy, cx) into dst
// (row-major (D,H,W) layout) — the shared core of the tensor-target and
// batched-slot extract paths.
func extractFOVIntoSlice(dst []float32, v *Volume, fov [3]int, cz, cy, cx int) {
	d, h, w := fov[0], fov[1], fov[2]
	z0, y0, x0 := cz-d/2, cy-h/2, cx-w/2
	i := 0
	for z := 0; z < d; z++ {
		for y := 0; y < h; y++ {
			base := ((z0+z)*v.H + y0 + y) * v.W
			copy(dst[i:i+w], v.Data[base+x0:base+x0+w])
			i += w
		}
	}
}

// InferenceStats summarizes one flood-fill run.
type InferenceStats struct {
	Steps       int // network applications
	Moves       int // FOV relocations enqueued
	MaskVoxels  int // voxels above SegmentProb in the final mask
	SeedsUsed   int
	VoxelsTotal int
}

// mergeCore max-merges the core of an output FOV centered at p into canvas.
// Only the central core of the FOV is merged: zero-padded convolution
// borders make edge predictions unreliable, and strong object evidence
// should accumulate rather than saturate across overlapping applications.
// Element-wise max is commutative and associative, so the merged canvas is
// independent of application order — the property the parallel path relies
// on for determinism.
func mergeCore(canvas []float32, H, W int, fov [3]int, out []float32, pz, py, px int) {
	mz, my, mx := fov[0]/4, fov[1]/4, fov[2]/4
	z0, y0, x0 := pz-fov[0]/2, py-fov[1]/2, px-fov[2]/2
	for z := mz; z < fov[0]-mz; z++ {
		for y := my; y < fov[1]-my; y++ {
			base := ((z0+z)*H + y0 + y) * W
			row := out[(z*fov[1]+y)*fov[2]:]
			for x := mx; x < fov[2]-mx; x++ {
				if v := row[x]; v > canvas[base+x0+x] {
					canvas[base+x0+x] = v
				}
			}
		}
	}
}

// mergeCoreSparse is mergeCore over a canvas that is live only where
// touched is set: a voxel's first touch initializes it to pad, the value a
// dense canvas would hold there, before the max-merge.
func mergeCoreSparse(canvas []float32, touched []bool, pad float32, H, W int, fov [3]int, out []float32, pz, py, px int) {
	mz, my, mx := fov[0]/4, fov[1]/4, fov[2]/4
	z0, y0, x0 := pz-fov[0]/2, py-fov[1]/2, px-fov[2]/2
	for z := mz; z < fov[0]-mz; z++ {
		for y := my; y < fov[1]-my; y++ {
			base := ((z0+z)*H+y0+y)*W + x0
			row := out[(z*fov[1]+y)*fov[2]:]
			for x := mx; x < fov[2]-mx; x++ {
				if !touched[base+x] {
					touched[base+x] = true
					canvas[base+x] = pad
				}
				if v := row[x]; v > canvas[base+x] {
					canvas[base+x] = v
				}
			}
		}
	}
}

type fovPos struct{ z, y, x int }

// fovInBounds reports whether the full FOV centered at (z, y, x) fits
// inside the volume — the single definition used for seed acceptance and
// flood expansion alike.
func (cfg *Config) fovInBounds(v *Volume, z, y, x int) bool {
	return z-cfg.FOV[0]/2 >= 0 && z+cfg.FOV[0]/2 < v.D &&
		y-cfg.FOV[1]/2 >= 0 && y+cfg.FOV[1]/2 < v.H &&
		x-cfg.FOV[2]/2 >= 0 && x+cfg.FOV[2]/2 < v.W
}

// Segment runs flood-filling inference over an image volume. Seeds are
// (z, y, x) starting points (typically local IVT maxima); each flood fills
// outward until no face of the FOV exceeds MoveProb. maxSteps bounds total
// network applications (0 means no bound). The result is a binary mask
// volume and run statistics.
//
// With maxSteps == 0 and more than one worker (parallel.Workers()), seeds
// are sharded across workers: floods claim FOV centers through a shared
// atomic visited array (each center is expanded exactly once, as in the
// serial multi-source BFS) and merge into worker-private canvases that are
// max-reduced afterwards. Workers drain ready centers in batches of
// Config.FloodBatch through the batched forward path (weights stream once
// per batch, activations fused into the conv writes). Because each
// application's output depends only on the image and the center — never on
// the canvas — the mask and statistics are identical to the serial per-FOV
// path at every batch size and worker count.
func (n *Network) Segment(image *Volume, seeds [][3]int, maxSteps int) (*Volume, InferenceStats) {
	mask, stats, _ := n.SegmentCtx(context.Background(), image, seeds, maxSteps, nil)
	return mask, stats
}

// floodProgress counts network applications across all flood workers and
// fires the user callback every progressEvery applications. A nil
// *floodProgress disables both, costing the flood loops nothing.
type floodProgress struct {
	steps atomic.Int64
	fn    func(steps int)
}

// progressEvery is the callback cadence in network applications; a power of
// two so the hot-loop check is a mask.
const progressEvery = 32

func (p *floodProgress) bump() {
	if p == nil {
		return
	}
	if n := p.steps.Add(1); n&(progressEvery-1) == 0 {
		p.fn(int(n))
	}
}

// SegmentCtx is the context-aware Segment: cancellation is checked before
// every network application in the serial flood and before every batch in
// the batched flood, so a cancelled context stops the run within one FOV
// batch (FloodBatch applications) per worker.
// On cancellation the partial canvas is still thresholded and returned with
// the statistics accumulated so far and ctx.Err(). progress (may be nil) is
// called with the running application count every progressEvery
// applications; under the sharded flood it fires concurrently from multiple
// workers, so the callback must be safe for concurrent use. With a
// background context the mask and statistics are identical to Segment's.
// It is the float-mask view of SegmentBits.
func (n *Network) SegmentCtx(ctx context.Context, image *Volume, seeds [][3]int, maxSteps int, progress func(steps int)) (*Volume, InferenceStats, error) {
	packed, stats, err := n.SegmentBits(ctx, image, seeds, maxSteps, progress)
	mask := NewVolume(image.D, image.H, image.W)
	for i, b := range packed {
		for ; b != 0; b &= b - 1 { // padding bits are zero
			mask.Data[8*i+bits.TrailingZeros8(b)] = 1
		}
	}
	return mask, stats, err
}

// SegmentBits is SegmentCtx with the mask packed 1 bit per voxel,
// LSB-first — the dataset codec's mask payload layout, so a mask can be
// stored or returned inline without another pass over the volume. Bits
// past the last voxel are zero.
//
// A bounded flood (maxSteps > 0) runs the serial FIFO flood on pooled
// canvas and visited buffers and touches only its seeds and applied FOV
// cores, so its cost does not grow with the volume beyond the packed mask
// itself. An unbounded flood keeps dense per-call canvases, which the
// sharded and batched paths need. Given a budget the flood never reaches,
// both give the same mask and statistics. The network is only read, so
// concurrent calls may share it once PrepareInference has run.
func (n *Network) SegmentBits(ctx context.Context, image *Volume, seeds [][3]int, maxSteps int, progress func(steps int)) ([]byte, InferenceStats, error) {
	stats := InferenceStats{VoxelsTotal: image.Size()}
	var prog *floodProgress
	if progress != nil {
		prog = &floodProgress{fn: progress}
	}
	// Build the quantized weight cache before any fan-out: flood workers
	// share it read-only.
	n.PrepareInference()
	var bits []byte
	if maxSteps > 0 {
		bits = n.segmentSparse(ctx, image, seeds, maxSteps, &stats, prog)
	} else {
		bits = n.segmentDense(ctx, image, seeds, &stats, prog)
	}
	// Report the final application count: the every-N cadence skips the
	// tail (and short floods entirely), and the terminal progress should
	// agree with the returned statistics.
	if prog != nil {
		progress(int(prog.steps.Load()))
	}
	return bits, stats, ctx.Err()
}

// PrepareInference builds the network's lazily derived inference state
// (the int8 weight twin) up front. After it, SegmentBits and SegmentCtx
// only read the network, so a cached network may serve concurrent jobs.
// Training invalidates the state again.
func (n *Network) PrepareInference() {
	if n.int8Inference() {
		n.quantized()
	}
}

// acceptSeeds keeps the in-bounds, deduplicated seeds, claiming each in the
// visited array (1 = already claimed by some flood).
func (n *Network) acceptSeeds(image *Volume, seeds [][3]int, claimed []int32, stats *InferenceStats) []fovPos {
	var accepted []fovPos
	for _, s := range seeds {
		key := (s[0]*image.H+s[1])*image.W + s[2]
		if n.cfg.fovInBounds(image, s[0], s[1], s[2]) && claimed[key] == 0 {
			claimed[key] = 1
			accepted = append(accepted, fovPos{s[0], s[1], s[2]})
			stats.SeedsUsed++
		}
	}
	return accepted
}

// segmentDense is the unbounded flood over volume-sized canvases: serial,
// batched, or sharded across workers (see Segment).
func (n *Network) segmentDense(ctx context.Context, image *Volume, seeds [][3]int, stats *InferenceStats, prog *floodProgress) []byte {
	cfg := n.cfg
	claimed := make([]int32, image.Size())
	accepted := n.acceptSeeds(image, seeds, claimed, stats)
	moveLogit := logit(cfg.MoveProb)
	padLogit := logit(cfg.PadProb)
	seedLogit := logit(cfg.SeedProb)

	canvas := make([]float32, image.Size())
	for i := range canvas {
		canvas[i] = padLogit
	}
	for _, s := range accepted {
		canvas[(s.z*image.H+s.y)*image.W+s.x] = seedLogit
	}

	shards := parallel.Ranges(len(accepted))
	batch := cfg.effectiveFloodBatch()
	if len(shards) <= 1 {
		if batch > 1 {
			n.floodShardBatch(ctx, image, accepted, claimed, canvas, moveLogit, stats, prog)
		} else {
			n.floodSerial(ctx, image, accepted, claimed, moveLogit, 0, stats, prog, func(out []float32, p fovPos) {
				mergeCore(canvas, image.H, image.W, cfg.FOV, out, p.z, p.y, p.x)
			})
		}
	} else {
		// Worker-private canvases, max-reduced in shard order afterwards
		// (order is irrelevant for max, but keep it fixed anyway).
		canvases := make([][]float32, len(shards))
		shardStats := make([]InferenceStats, len(shards))
		parallel.For(len(shards), func(s0, s1 int) {
			for k := s0; k < s1; k++ {
				wc := make([]float32, image.Size())
				for i := range wc {
					wc[i] = padLogit
				}
				canvases[k] = wc
				if batch > 1 {
					n.floodShardBatch(ctx, image, accepted[shards[k][0]:shards[k][1]], claimed, wc, moveLogit, &shardStats[k], prog)
				} else {
					n.floodShard(ctx, image, accepted[shards[k][0]:shards[k][1]], claimed, wc, moveLogit, &shardStats[k], prog)
				}
			}
		})
		for k := range canvases {
			for i, v := range canvases[k] {
				if v > canvas[i] {
					canvas[i] = v
				}
			}
			stats.Steps += shardStats[k].Steps
			stats.Moves += shardStats[k].Moves
		}
	}

	// Threshold the canvas into the packed mask. On cancellation this
	// reports the partial flood: whatever cores were merged before the
	// stop.
	segLogit := logit(cfg.SegmentProb)
	bits := make([]byte, (len(canvas)+7)/8)
	for i, v := range canvas {
		if v >= segLogit {
			bits[i>>3] |= 1 << (i & 7)
			stats.MaskVoxels++
		}
	}
	return bits
}

// sparseFlood is a bounded flood's volume-sized state. Between floods every
// touched flag and claimed entry is zero: a flood resets exactly the
// entries it set, so reuse costs nothing per voxel of the volume. canvas
// values are meaningful only where touched is set.
type sparseFlood struct {
	canvas  []float32
	touched []bool
	claimed []int32
}

var sparseFloods sync.Pool // of *sparseFlood

// getSparseFlood borrows clean state for a volume of n voxels.
func getSparseFlood(n int) *sparseFlood {
	if f, _ := sparseFloods.Get().(*sparseFlood); f != nil && cap(f.touched) >= n {
		f.canvas, f.touched, f.claimed = f.canvas[:n], f.touched[:n], f.claimed[:n]
		return f
	}
	return &sparseFlood{canvas: make([]float32, n), touched: make([]bool, n), claimed: make([]int32, n)}
}

// segmentSparse is the bounded flood. Untouched voxels hold the pad logit
// implicitly: a voxel's canvas value is initialized when a seed or merged
// core first touches it, and thresholding visits only touched voxels on
// top of the pad logit's verdict for the rest of the volume.
func (n *Network) segmentSparse(ctx context.Context, image *Volume, seeds [][3]int, maxSteps int, stats *InferenceStats, prog *floodProgress) []byte {
	cfg := n.cfg
	size := image.Size()
	f := getSparseFlood(size)
	H, W, fov := image.H, image.W, cfg.FOV
	padLogit := logit(cfg.PadProb)
	seedLogit := logit(cfg.SeedProb)

	accepted := n.acceptSeeds(image, seeds, f.claimed, stats)
	for _, s := range accepted {
		k := (s.z*H+s.y)*W + s.x
		f.touched[k] = true
		f.canvas[k] = seedLogit
	}
	// The bounded-step flood stays per-FOV FIFO, so which applications
	// spend the budget is unchanged by the batch setting.
	queue := n.floodSerial(ctx, image, accepted, f.claimed, logit(cfg.MoveProb), maxSteps, stats, prog, func(out []float32, p fovPos) {
		mergeCoreSparse(f.canvas, f.touched, padLogit, H, W, fov, out, p.z, p.y, p.x)
	})

	// Threshold into bits, clearing each touched flag as it is read. The
	// pad logit decides every untouched voxel; a touched voxel flips its
	// bit when its own verdict differs.
	segLogit := logit(cfg.SegmentProb)
	padSet := padLogit >= segLogit
	bits := make([]byte, (size+7)/8)
	if padSet {
		for i := range bits {
			bits[i] = 0xff
		}
		if rem := size % 8; rem != 0 {
			bits[len(bits)-1] = 1<<rem - 1
		}
		stats.MaskVoxels = size
	}
	settle := func(k int) {
		if !f.touched[k] {
			return
		}
		f.touched[k] = false
		if (f.canvas[k] >= segLogit) != padSet {
			bits[k>>3] ^= 1 << (k & 7)
			if padSet {
				stats.MaskVoxels--
			} else {
				stats.MaskVoxels++
			}
		}
	}
	mz, my, mx := fov[0]/4, fov[1]/4, fov[2]/4
	for i, p := range queue {
		key := (p.z*H+p.y)*W + p.x
		f.claimed[key] = 0
		settle(key) // an unapplied seed's voxel is touched too
		if i >= stats.Steps {
			continue // claimed but never applied
		}
		z0, y0, x0 := p.z-fov[0]/2, p.y-fov[1]/2, p.x-fov[2]/2
		for z := mz; z < fov[0]-mz; z++ {
			for y := my; y < fov[1]-my; y++ {
				base := ((z0+z)*H+y0+y)*W + x0
				for x := mx; x < fov[2]-mx; x++ {
					settle(base + x)
				}
			}
		}
	}
	// Returned only once clean: a flood that panics drops its state.
	sparseFloods.Put(f)
	return bits
}

// moveOffsets returns the six move-target displacements (center +/-
// MoveStep along each axis); these sit inside the reliable core of the FOV
// prediction.
func (cfg *Config) moveOffsets() [6][3]int {
	return [6][3]int{
		{-cfg.MoveStep[0], 0, 0}, {cfg.MoveStep[0], 0, 0},
		{0, -cfg.MoveStep[1], 0}, {0, cfg.MoveStep[1], 0},
		{0, 0, -cfg.MoveStep[2]}, {0, 0, cfg.MoveStep[2]},
	}
}

// floodSerial is the single-goroutine flood: a multi-source BFS over FOV
// centers with an optional step budget and cooperative cancellation checked
// before every application. merge folds each application's output into the
// caller's canvas. It returns every claimed center in FIFO order: the
// seeds first, and the first stats.Steps entries are the applied ones.
func (n *Network) floodSerial(ctx context.Context, image *Volume, seeds []fovPos, claimed []int32, moveLogit float32, maxSteps int, stats *InferenceStats, prog *floodProgress, merge func(out []float32, p fovPos)) []fovPos {
	cfg := n.cfg
	s := n.getBatchScratch()
	defer n.putBatchScratch(s)
	offsets := cfg.moveOffsets()
	queue := append([]fovPos(nil), seeds...)
	for head := 0; head < len(queue); head++ {
		if maxSteps > 0 && stats.Steps >= maxSteps {
			break
		}
		if ctx.Err() != nil {
			break
		}
		p := queue[head]
		out := n.forwardOne(s, image, p)
		merge(out, p)
		stats.Steps++
		prog.bump()

		for _, off := range offsets {
			fz := cfg.FOV[0]/2 + off[0]
			fy := cfg.FOV[1]/2 + off[1]
			fx := cfg.FOV[2]/2 + off[2]
			v := out[(fz*cfg.FOV[1]+fy)*cfg.FOV[2]+fx]
			if v < moveLogit {
				continue
			}
			nz, ny, nx := p.z+off[0], p.y+off[1], p.x+off[2]
			if !cfg.fovInBounds(image, nz, ny, nx) {
				continue
			}
			key := (nz*image.H+ny)*image.W + nx
			if claimed[key] != 0 {
				continue
			}
			claimed[key] = 1
			queue = append(queue, fovPos{nz, ny, nx})
			stats.Moves++
		}
	}
	return queue
}

// floodShard floods one worker's seed shard, claiming centers through the
// shared atomic visited array and merging into a worker-private canvas.
// Cancellation is checked before every application, as in floodSerial.
func (n *Network) floodShard(ctx context.Context, image *Volume, seeds []fovPos, claimed []int32, canvas []float32, moveLogit float32, stats *InferenceStats, prog *floodProgress) {
	cfg := n.cfg
	s := n.getBatchScratch()
	defer n.putBatchScratch(s)
	offsets := cfg.moveOffsets()
	queue := append([]fovPos(nil), seeds...)
	for len(queue) > 0 {
		if ctx.Err() != nil {
			return
		}
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		out := n.forwardOne(s, image, p)
		mergeCore(canvas, image.H, image.W, cfg.FOV, out, p.z, p.y, p.x)
		stats.Steps++
		prog.bump()

		for _, off := range offsets {
			fz := cfg.FOV[0]/2 + off[0]
			fy := cfg.FOV[1]/2 + off[1]
			fx := cfg.FOV[2]/2 + off[2]
			v := out[(fz*cfg.FOV[1]+fy)*cfg.FOV[2]+fx]
			if v < moveLogit {
				continue
			}
			nz, ny, nx := p.z+off[0], p.y+off[1], p.x+off[2]
			if !cfg.fovInBounds(image, nz, ny, nx) {
				continue
			}
			key := (nz*image.H+ny)*image.W + nx
			if !atomic.CompareAndSwapInt32(&claimed[key], 0, 1) {
				continue
			}
			queue = append(queue, fovPos{nz, ny, nx})
			stats.Moves++
		}
	}
}

// GridSeeds produces seed positions on a regular lattice wherever the image
// exceeds threshold — the seed policy used when no object detector is
// available.
func GridSeeds(image *Volume, fov [3]int, stride [3]int, threshold float32) [][3]int {
	var out [][3]int
	for z := fov[0] / 2; z+fov[0]/2 < image.D; z += stride[0] {
		for y := fov[1] / 2; y+fov[1]/2 < image.H; y += stride[1] {
			for x := fov[2] / 2; x+fov[2]/2 < image.W; x += stride[2] {
				if image.At(z, y, x) >= threshold {
					out = append(out, [3]int{z, y, x})
				}
			}
		}
	}
	return out
}
