package service

import (
	"context"
	"fmt"

	"chaseci/internal/api"
	"chaseci/internal/queue"
	"chaseci/internal/sched"
)

// Node pools are the Runner's only dispatch unit. A single-node runner has
// one pool and no scheduler. In cluster mode each fabric node runs its own
// pool, and the sched.Scheduler decides which pool a job lands on by data
// gravity. Node loss drains the node's pool and requeues its jobs through
// placement against the surviving replicas.

// NodePendingKey is the store list previous runner generations used as a
// node's dispatch queue; the current generation dispatches from in-memory
// fair queues but still drains these lists at startup (orphan semantics,
// see drainOrphans).
func NodePendingKey(node string) string { return "jobs:pending:" + node }

// nodePool is one node's worker pool (node is "" for a single-node
// runner's pool). Its context is a child of the runner's, so Close stops
// every pool; DrainNode stops just this one. fq is the pool's weighted-fair
// pending queue, so tenant fairness holds per pool.
type nodePool struct {
	node string
	fq   *fairQueue
	wake chan struct{}
	ctx  context.Context
	stop context.CancelFunc
}

// push enqueues j and wakes one of the pool's workers.
func (p *nodePool) push(j *job) {
	p.fq.Push(j.owner, j.id)
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// NewClusterRunner builds a Runner that places jobs on the fabric's node
// pools. workersPerNode <= 0 defaults to 2. The fabric's dataset
// manager becomes the runner's data plane, so submitted refs and OSD
// replica placement live in the same store the scheduler scores against.
func NewClusterRunner(reg *Registry, store *queue.Store, workersPerNode int, fab *sched.Fabric) *Runner {
	return NewClusterRunnerConfigured(reg, store, fab, RunnerConfig{Workers: workersPerNode})
}

// NewClusterRunnerConfigured is NewClusterRunner with explicit sharding,
// admission, and fairness configuration (cfg.Workers is the per-node pool
// size; cfg.Datasets is ignored — the fabric's data plane always wins).
func NewClusterRunnerConfigured(reg *Registry, store *queue.Store, fab *sched.Fabric, cfg RunnerConfig) *Runner {
	r := newRunnerCore(reg, store, fab.Datasets, cfg, 2)
	r.sched = sched.New(fab)
	r.drains = make(map[string]bool)
	r.sched.OnBind(r.onBind)
	r.sched.OnDrain(r.onDrain)
	for _, node := range fab.NodeNames() {
		r.drainOrphans(NodePendingKey(node))
		r.pools[node] = r.startPool(node)
	}
	return r
}

// startPool launches a pool's workers. r.mu may be held by the caller; the
// workers themselves never take it outside execute's helpers.
func (r *Runner) startPool(node string) *nodePool {
	ctx, stop := context.WithCancel(r.baseCtx)
	p := &nodePool{
		node: node,
		fq:   newFairQueue(r.adm.weight),
		// Buffered to the pool size so a burst of pushes wakes a worker per
		// job instead of collapsing into one token (signals dropped beyond
		// that are harmless: every worker is already awake and re-drains
		// the queue before sleeping).
		wake: make(chan struct{}, r.poolWorkers),
		ctx:  ctx,
		stop: stop,
	}
	r.wg.Add(r.poolWorkers)
	for i := 0; i < r.poolWorkers; i++ {
		go r.poolLoop(p)
	}
	return p
}

func (r *Runner) poolLoop(p *nodePool) {
	defer r.wg.Done()
	for {
		for {
			id, ok := p.fq.Pop()
			if !ok {
				break
			}
			r.execute(p, id)
			if p.ctx.Err() != nil {
				return
			}
		}
		select {
		case <-p.ctx.Done():
			return
		case <-p.wake:
		}
	}
}

// workloadFor builds the scheduler's view of a job: its pinned refs, an
// input-size estimate for the energy model, and the caller's constraints.
func (r *Runner) workloadFor(j *job) *sched.Workload {
	return &sched.Workload{
		JobID:  j.id,
		Kind:   j.kind,
		Owner:  j.owner,
		Refs:   append([]string(nil), j.refs...),
		Voxels: r.jobVoxels(j.req),
		Spec:   j.req.Placement,
	}
}

// jobVoxels estimates the job's input volume for the placement energy
// estimate (0 = unknown).
func (r *Runner) jobVoxels(req *api.JobRequest) float64 {
	src := func(v *api.VolumeSource) float64 {
		switch {
		case v.Ref != "":
			if info, ok := r.datasets.Stat(v.Ref); ok {
				return float64(info.D) * float64(info.H) * float64(info.W)
			}
			return 0
		case v.Synth != nil:
			return float64(v.Synth.NLon) * float64(v.Synth.NLat) * float64(v.Synth.Steps)
		default:
			return float64(v.D) * float64(v.H) * float64(v.W)
		}
	}
	switch {
	case req.Segment != nil:
		return src(&req.Segment.Source)
	case req.Label != nil:
		return src(&req.Label.Source)
	case req.Train != nil:
		return src(&req.Train.Source)
	case req.IVT != nil:
		s := req.IVT.Synth
		return float64(s.NLon) * float64(s.NLat) * float64(s.Steps)
	case req.Pipeline != nil:
		s := req.Pipeline.Synth
		return float64(s.NLon) * float64(s.NLat) * float64(s.Steps)
	default:
		return 0
	}
}

// bindJob publishes a placement decision and hands the job to the chosen
// node's pool. If the node died between the decision and the enqueue, the
// job is sent back through placement instead of stranding on a dead queue.
// A restored node's pool starts with the first job bound to it: the
// scheduler may place on the node before any restore callback could run.
func (r *Runner) bindJob(j *job, pl *api.Placement) {
	j.placement.Store(pl)
	r.persist(j)
	r.mu.Lock()
	pool := r.pools[pl.Node]
	if pool == nil && !r.closed && !r.drains[j.id] {
		// No drain marker: the node is live in the scheduler, so it was
		// restored after its pool was torn down.
		pool = r.startPool(pl.Node)
		r.pools[pl.Node] = pool
	}
	if pool != nil {
		// Push under r.mu: the drain path deletes the pool and sweeps its
		// queue under the same mutex discipline, so an id pushed here is
		// either popped by a live pool or reclaimed by the drain's sweep —
		// never stranded.
		pool.push(j)
	}
	r.mu.Unlock()
	// No pool: the scheduler already unbound the job when the node died;
	// the drain marker tells us whether this path owns the requeue.
	if pool == nil && r.takeDrain(j.id) {
		r.rePlace(j)
	}
}

// takeDrain consumes the job's drain marker (set when its node was lost).
// Exactly one caller sees true per drain, making the requeue exactly-once.
func (r *Runner) takeDrain(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.drains[id] {
		return false
	}
	delete(r.drains, id)
	return true
}

// requeueJob resets a drained job to queued and runs placement again. The
// job's refs stay pinned across the requeue — re-placement resolves them
// against the surviving replicas.
func (r *Runner) requeueJob(j *job) {
	if !j.state.CompareAndSwap(codeRunning, codeQueued) {
		return
	}
	j.started.Store(0)
	j.done.Store(0)
	j.total.Store(0)
	empty := ""
	j.stage.Store(&empty)
	r.gaugeAdd("jobs_running", j.kind, -1)
	r.pendingAdd(j, +1)
	r.count("jobs_requeued", j.kind)
	r.persist(j)
	r.rePlace(j)
}

// maxPlacementRetries caps how many drain-requeue cycles a single job may
// survive before it goes terminal failed. Without the budget, a fault
// pattern that keeps killing whichever node a job lands on would bounce the
// job (and its pinned refs) through placement forever.
const maxPlacementRetries = 5

// rePlace runs placement for an already-admitted queued job (after a drain
// or a late bind race). Placement failure is terminal: the cluster shrank
// below the job's static needs. A job over its requeue budget is failed
// rather than re-placed.
func (r *Runner) rePlace(j *job) {
	var pl *api.Placement
	var err error
	if n := r.sched.Requeues(j.id); n > maxPlacementRetries {
		err = fmt.Errorf("placement retry budget exhausted (%d requeues > %d allowed)",
			n, maxPlacementRetries)
	} else {
		pl, err = r.sched.Place(j.wl)
	}
	if err != nil {
		r.finishQueued(j, codeFailed, fmt.Sprintf("placement lost after node failure: %v", err), "jobs_failed")
		return
	}
	if pl == nil {
		return // parked; OnBind delivers it when capacity frees
	}
	r.bindJob(j, pl)
}

// onBind delivers a parked job's placement (fires outside sched's lock).
func (r *Runner) onBind(id string, pl *api.Placement) {
	j := r.lookupJob(id)
	r.mu.Lock()
	closed := r.closed
	r.mu.Unlock()
	if j == nil || closed || j.state.Load() != codeQueued {
		r.sched.Release(id)
		return
	}
	r.bindJob(j, pl)
}

// onDrain tears down a lost node's pool and requeues everything that was
// bound there: running jobs via their context cancellation (execute's
// requeue path), queued jobs via the queue sweep below.
func (r *Runner) onDrain(node string, ids []string) {
	r.mu.Lock()
	pool := r.pools[node]
	delete(r.pools, node)
	for _, id := range ids {
		r.drains[id] = true
	}
	r.mu.Unlock()
	// Cancel funcs live in the job shards; collect them outside r.mu (the
	// two mutexes are never held together) and fire them lock-free.
	var cancels []context.CancelFunc
	for _, id := range ids {
		sh := r.shardFor(id)
		sh.mu.Lock()
		if c := sh.cancels[id]; c != nil {
			cancels = append(cancels, c)
		}
		sh.mu.Unlock()
	}
	for _, c := range cancels {
		c()
	}
	if pool == nil {
		return
	}
	pool.stop()
	select {
	case pool.wake <- struct{}{}:
	default:
	}
	// Sweep the dead node's pending queue. Jobs a pool worker popped before
	// the stop requeue themselves through execute's drain check; everything
	// still queued is reclaimed here.
	for _, id := range pool.fq.PopAll() {
		j := r.lookupJob(id)
		if j == nil || j.state.Load() != codeQueued {
			continue
		}
		if r.takeDrain(id) {
			r.rePlace(j)
		}
	}
}

// --- Cluster-mode accessors (gateway / CLI surface) -------------------------

// ClusterMode reports whether this runner places jobs on a fabric.
func (r *Runner) ClusterMode() bool { return r.sched != nil }

// Scheduler returns the placement scheduler (nil on single-node runners).
func (r *Runner) Scheduler() *sched.Scheduler { return r.sched }

// Nodes returns the fabric inventory (nil on single-node runners).
func (r *Runner) Nodes() []api.NodeStatus {
	if r.sched == nil {
		return nil
	}
	return r.sched.Nodes()
}

// DrainNode simulates losing a fabric node: its OSD fails, its pool stops,
// and its jobs requeue through placement.
func (r *Runner) DrainNode(name string) error {
	if r.sched == nil {
		return fmt.Errorf("service: not a cluster runner")
	}
	return r.sched.KillNode(name)
}

// RestoreNode brings a drained node (and its OSD) back; its pool restarts
// with the first job placed there.
func (r *Runner) RestoreNode(name string) error {
	if r.sched == nil {
		return fmt.Errorf("service: not a cluster runner")
	}
	return r.sched.RestoreNode(name)
}
