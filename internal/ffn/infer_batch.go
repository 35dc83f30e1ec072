package ffn

import (
	"context"
	"sync/atomic"

	"chaseci/internal/tensor"
)

// Batched flood-fill inference. Instead of running one network application
// per ready FOV center, a flood worker drains up to FloodBatch positions
// from its queue and pushes them through the batched forward path in one
// dispatch: the shared weights are streamed from memory once per batch
// rather than once per application, and the fused conv epilogues
// (tensor.Conv3DBatchReLUInto / Conv3DBatchResReLUInto) fold each layer's
// activation and residual into the conv output write. Because every
// application's output depends only on the image and the center — never on
// the canvas or on other in-flight applications — batching any subset of
// ready positions produces bit-exact masks and statistics at every batch
// size and worker count (the claimed set stays the multi-source closure,
// and the canvas merge is an order-independent element-wise max).

// DefaultFloodBatch is the FOV batch size used when Config.FloodBatch is 0.
const DefaultFloodBatch = 8

// MaxFloodBatch caps the batch (and therefore the batched scratch size);
// Config.Validate rejects larger values.
const MaxFloodBatch = 256

// effectiveFloodBatch resolves the configured batch size.
func (c *Config) effectiveFloodBatch() int {
	b := c.FloodBatch
	if b <= 0 {
		b = DefaultFloodBatch
	}
	if b > MaxFloodBatch {
		b = MaxFloodBatch
	}
	return b
}

// batchScratch holds one flood worker's reusable batched buffers: the
// packed (B,2,D,H,W) input (POM channels prefilled once — they are the
// constant seed POM), ping-pong activation tensors, the module hidden
// buffer, and the output logits. Scratches recycle through the Network's
// pool, so steady-state batched floods allocate nothing per batch.
type batchScratch struct {
	in     *tensor.Tensor // (B, 2, D, H, W) packed image+POM
	x0, x1 *tensor.Tensor // (B, F, D, H, W) activations (ping-pong)
	hid    *tensor.Tensor // (B, F, D, H, W) module hidden
	out    *tensor.Tensor // (B, 1, D, H, W) output logits
	pos    []fovPos       // live batch positions
}

func (n *Network) newBatchScratch() *batchScratch {
	B := n.cfg.effectiveFloodBatch()
	f := n.cfg.Features
	d, h, w := n.cfg.FOV[0], n.cfg.FOV[1], n.cfg.FOV[2]
	s := &batchScratch{
		in:  tensor.New(B, 2, d, h, w),
		x0:  tensor.New(B, f, d, h, w),
		x1:  tensor.New(B, f, d, h, w),
		hid: tensor.New(B, f, d, h, w),
		out: tensor.New(B, 1, d, h, w),
		pos: make([]fovPos, 0, B),
	}
	// The POM channel of every slot is the constant seed POM: fill once.
	pom := n.SeedPOM()
	fovN := d * h * w
	for b := 0; b < B; b++ {
		copy(s.in.Data[(2*b+1)*fovN:(2*b+2)*fovN], pom.Data)
	}
	return s
}

// InferenceBytes is the memory one flood worker needs from the network: its
// weights plus one batched scratch. A cache of shared networks charges it
// per entry, since a shared network keeps its idle scratches between jobs.
func (n *Network) InferenceBytes() int {
	fov := n.cfg.FOV
	perSlot := (2 + 3*n.cfg.Features + 1) * fov[0] * fov[1] * fov[2] // in, x0/x1/hid, out
	return 4 * (n.ParamCount() + n.cfg.effectiveFloodBatch()*perSlot)
}

// maxIdleBatchScratch bounds the network's idle scratch list: enough for a
// fully fanned-out flood (one scratch per worker, and worker counts beyond
// the machine add nothing), without pinning unbounded memory after a burst.
const maxIdleBatchScratch = 64

// getBatchScratch borrows a scratch from the network's free list. The list
// is a mutex-guarded LIFO rather than a sync.Pool: scratches must survive
// between floods deterministically (the runtime may drop pool entries at
// any GC, and the race detector drops them eagerly), and a flood borrows at
// most once per worker, so the lock is nowhere near any hot path.
func (n *Network) getBatchScratch() *batchScratch {
	n.bsMu.Lock()
	if k := len(n.bsFree); k > 0 {
		s := n.bsFree[k-1]
		n.bsFree[k-1] = nil
		n.bsFree = n.bsFree[:k-1]
		n.bsMu.Unlock()
		return s
	}
	n.bsMu.Unlock()
	return n.newBatchScratch()
}

func (n *Network) putBatchScratch(s *batchScratch) {
	n.bsMu.Lock()
	if len(n.bsFree) < maxIdleBatchScratch {
		n.bsFree = append(n.bsFree, s)
	}
	n.bsMu.Unlock()
}

// forwardBatchInto runs the inference-only forward pass over the first k
// batch slots with fused activations: conv+ReLU for the input layer and
// module hidden, conv+residual+ReLU for the module tail, plain conv for the
// final 1x1x1 logit layer (its bias epilogue is the logit itself). Results
// land in s.out and are bit-exact with forwardInto per slot.
func (n *Network) forwardBatchInto(s *batchScratch, k int) {
	tensor.Conv3DBatchReLUInto(s.x0, s.in, n.wIn, n.bIn, k)
	cur, nxt := s.x0, s.x1
	for _, m := range n.mods {
		tensor.Conv3DBatchReLUInto(s.hid, cur, m.w1, m.b1, k)
		tensor.Conv3DBatchResReLUInto(nxt, s.hid, m.w2, m.b2, cur, k)
		cur, nxt = nxt, cur
	}
	tensor.Conv3DBatchInto(s.out, cur, n.wOut, n.bOut, k)
}

// forwardBatch runs the batched forward pass over the first k slots in the
// network's inference precision.
func (n *Network) forwardBatch(s *batchScratch, k int) {
	if n.int8Inference() {
		n.forwardBatchQInto(s, k)
	} else {
		n.forwardBatchInto(s, k)
	}
}

// forwardOne runs one network application on the FOV centered at p through
// slot 0 of the batch scratch and returns the logit FOV, valid until the
// scratch's next use. Each application is conditioned on the constant seed
// POM (pad probability everywhere, seed probability at the center) so the
// network sees exactly the input distribution it was trained on; the
// canvas serves as the aggregation buffer across FOVs. This is the
// single-step simplification of FFN's recurrent POM, documented in
// DESIGN.md.
func (n *Network) forwardOne(s *batchScratch, image *Volume, p fovPos) []float32 {
	fov := n.cfg.FOV
	fovN := fov[0] * fov[1] * fov[2]
	extractFOVIntoSlice(s.in.Data[:fovN], image, fov, p.z, p.y, p.x)
	n.forwardBatch(s, 1)
	return s.out.Data[:fovN]
}

// floodShardBatch floods one worker's seed shard in batches of up to B FOV
// positions, claiming centers through the shared atomic visited array and
// max-merging output cores into canvas (worker-private under the sharded
// flood, the shared canvas when single-shard). Cancellation is checked
// before every batch, so a cancelled context stops the run within one batch
// per worker.
func (n *Network) floodShardBatch(ctx context.Context, image *Volume, seeds []fovPos, claimed []int32, canvas []float32, moveLogit float32, stats *InferenceStats, prog *floodProgress) {
	cfg := n.cfg
	s := n.getBatchScratch()
	defer n.putBatchScratch(s)
	B := cap(s.pos)
	fov := cfg.FOV
	fovN := fov[0] * fov[1] * fov[2]
	offsets := cfg.moveOffsets()
	queue := append([]fovPos(nil), seeds...)
	for len(queue) > 0 {
		if ctx.Err() != nil {
			return
		}
		k := B
		if len(queue) < k {
			k = len(queue)
		}
		s.pos = append(s.pos[:0], queue[len(queue)-k:]...)
		queue = queue[:len(queue)-k]
		for i, p := range s.pos {
			extractFOVIntoSlice(s.in.Data[2*i*fovN:][:fovN], image, fov, p.z, p.y, p.x)
		}
		n.forwardBatch(s, k)
		for i, p := range s.pos {
			out := s.out.Data[i*fovN:][:fovN]
			mergeCore(canvas, image.H, image.W, fov, out, p.z, p.y, p.x)
			stats.Steps++
			prog.bump()
			for _, off := range offsets {
				fz := fov[0]/2 + off[0]
				fy := fov[1]/2 + off[1]
				fx := fov[2]/2 + off[2]
				if out[(fz*fov[1]+fy)*fov[2]+fx] < moveLogit {
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
}
