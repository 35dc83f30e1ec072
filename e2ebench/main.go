// Command e2ebench is the repository's end-to-end benchmark. It builds the
// chased stack in this process — service.NewGateway over the runner that
// `chased serve [-cluster]` builds, with that command's default flags — on
// a loopback listener, drives one workload through the HTTP API from a
// single client, checks every job's output, and prints every metric by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds it first:
//
//	bash e2ebench/run.sh --workload serve_segment_ref --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end set. With --trace 1 the
// run measures an untraced and a traced half-window, replays a sample of
// the jobs through the public functions the handler calls, and reports the
// per-layer split. README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/service"
	"chaseci/internal/tensor"
)

// setupRepeats is how many times a run builds its stack; setup_s is the
// median, and the run measures on the last stack built.
const setupRepeats = 3

// workload is one traffic mix driven through the HTTP API.
type workload interface {
	kind() api.Kind
	cluster() bool
	tenants() int
	// setUp readies a fresh stack: it uploads the inputs, computes the
	// references the checks compare against, and warms the stack up.
	setUp(s *stack) error
	// drive runs the workload for d. Job names start with prefix.
	drive(s *stack, d time.Duration, prefix string) []op
	// verify checks the outputs of a window's jobs that drive left
	// unchecked.
	verify(s *stack, ops []op)
	// replay re-runs a sample of jobs through the public functions the
	// handler calls, one span per call, and returns layer figures that are
	// not span durations.
	replay(s *stack, tr *tracer, live []op) (map[string]float64, error)
}

// op is what end-to-end latency is reported per: one job, or on the train
// workload a fresh run and the resume of its checkpoint.
type op []*jobRec

// e2eMs is the op's latency: the sum of its jobs' latencies, each from its
// due time to the server's finish stamp. A failed op never meets a limit.
func (o op) e2eMs() float64 {
	var t int64
	for _, r := range o {
		if r.err != nil {
			return failedMs
		}
		t += r.e2e()
	}
	return nsToMs(t)
}

// failedMs is a failed op's latency: longer than any limit.
const failedMs = 1e300

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "serve_segment_ref":
		return newServe(seed), nil
	case "pipeline_flood":
		return newPipeline(seed), nil
	case "train_ckpt_resume":
		return newTrain(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want serve_segment_ref, pipeline_flood or train_ckpt_resume)", name)
}

// stamp records what a result was measured on.
type stamp struct {
	Workload    string `json:"workload"`
	Seed        uint64 `json:"seed"`
	Seconds     int    `json:"seconds"`
	Trace       bool   `json:"trace"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NProc       int    `json:"nproc"`
	GoVersion   string `json:"go_version"`
	SpanKernels bool   `json:"span_kernels_active"`
	QuantAsm    bool   `json:"quant_asm_active"`
	Commit      string `json:"commit"`
}

func newStamp(name string, seed uint64, seconds int, traced bool) stamp {
	return stamp{
		Workload: name, Seed: seed, Seconds: seconds, Trace: traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		SpanKernels: tensor.SpanKernelsActive(), QuantAsm: tensor.QuantAsmActive(),
		Commit: commit(),
	}
}

// commit is the VCS revision the binary was built from, when the build saw
// one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's result. problems lists anything that makes it
// incorrect beyond failed jobs, such as a percentile with too few samples.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
}

func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// pct reports the q-quantile of xs as metric name.
func (r *report) pct(name string, xs []float64, q float64, unit string) {
	r.set(name, r.quantile(name, xs, q), unit)
}

// quantile is the q-quantile of xs, recording a problem under name when
// the sample-count rule fails.
func (r *report) quantile(name string, xs []float64, q float64) float64 {
	v, err := quantile(xs, q)
	if err != nil {
		r.problems = append(r.problems, name+": "+err.Error())
	}
	return v
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	stdout, stderr := os.Stdout, os.Stderr
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "serve_segment_ref, pipeline_flood or train_ckpt_resume")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed makes the same inputs")
	seconds := fs.Int("seconds", 30, "measured window in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer split")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	traced := *traceFlag == 1
	st := newStamp(*name, *seed, *seconds, traced)
	stampLine, _ := json.Marshal(st) // a flat struct always marshals
	fmt.Fprintf(stdout, "stamp %s\n", stampLine)

	rep, err := runWorkload(w, st, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	rep.Correct = rep.Failed == 0 && len(rep.problems) == 0
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "e2ebench: incorrect:", p)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(stdout, "%-36s %14s %s\n", n, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err) // a NaN or Inf metric
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runWorkload builds the stack setupRepeats times, then measures one
// window (untraced) or two half-windows and a replay (traced).
func runWorkload(w workload, st stamp, d time.Duration) (*report, error) {
	var tr *tracer
	reg := service.DefaultRegistry()
	if st.Trace {
		tr = &tracer{}
		reg = tr.wrap(w.kind())
	}
	var (
		s      *stack
		setups []float64
	)
	for k := 0; k < setupRepeats; k++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		var err error
		if s, err = startStack(reg, w.cluster(), w.tenants()); err != nil {
			return nil, err
		}
		if err := w.setUp(s); err != nil {
			s.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer s.close()

	rep := &report{}
	if !st.Trace {
		win := measure(s, w, d, "m")
		win.count(rep)
		rep.set("setup_s", median(setups), "s")
		rep.pct("e2e_p50_ms", win.e2e(), 0.5, "ms")
		rep.set("jobs_per_s", win.jobsPerS(), "1/s")
		rep.set("cpu_ms_per_job", ms(win.proc.cpu)/float64(win.completed()), "ms")
		rep.set("heap_live_mb", win.heapMB, "MB")
		return rep, nil
	}

	plain := measure(s, w, d/2, "u")
	tr.on.Store(true)
	traced := measure(s, w, d/2, "t")
	tr.on.Store(false)
	plain.count(rep)
	traced.count(rep)
	cacheMB := float64(s.runner.Datasets().CachedBytes()) / (1 << 20)
	liveSpans(tr, traced.ops)
	extra, err := w.replay(s, tr, traced.ops)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	spans := tr.snapshot()
	layers(rep, plain, traced, spans, extra, s)
	rep.set("dataset.cache_mb", cacheMB, "MB")
	path, err := writeSpans(filepath.Join(".bench_build", "trace"), st, spans)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %d spans written to %s\n", len(spans), path)
	return rep, nil
}

// windowResult is one measured window.
type windowResult struct {
	ops    []op
	proc   procSample // deltas over the window
	heapMB float64
}

// measure drives one window and takes the process deltas around it.
func measure(s *stack, w workload, d time.Duration, prefix string) *windowResult {
	runtime.GC() // start every window from the same collector state
	p0 := sampleProc()
	ops := w.drive(s, d, prefix)
	p1 := sampleProc()
	w.verify(s, ops)
	return &windowResult{
		ops:    ops,
		proc:   procSample{cpu: p1.cpu - p0.cpu, mallocs: p1.mallocs - p0.mallocs, alloc: p1.alloc - p0.alloc},
		heapMB: liveHeapMB(),
	}
}

func (wr *windowResult) jobs() []*jobRec {
	var out []*jobRec
	for _, o := range wr.ops {
		out = append(out, o...)
	}
	return out
}

// count adds the window's jobs to the report's attempted and failed
// counts, and logs the first few failures.
func (wr *windowResult) count(rep *report) {
	for _, r := range wr.jobs() {
		rep.Attempted++
		if r.err != nil {
			if rep.Failed < 5 {
				fmt.Fprintln(os.Stderr, "e2ebench: failed:", r.err)
			}
			rep.Failed++
		}
	}
}

func (wr *windowResult) completed() int {
	n := 0
	for _, r := range wr.jobs() {
		if r.err == nil {
			n++
		}
	}
	return max(n, 1)
}

func (wr *windowResult) e2e() []float64 {
	out := make([]float64, len(wr.ops))
	for i, o := range wr.ops {
		out[i] = o.e2eMs()
	}
	return out
}

// jobsPerS is completed jobs per second from the first due time to the
// last finish stamp.
func (wr *windowResult) jobsPerS() float64 {
	var first, last int64
	n := 0
	for _, r := range wr.jobs() {
		if first == 0 || r.due < first {
			first = r.due
		}
		if r.err == nil {
			n++
			last = max(last, r.st.FinishedAt)
		}
	}
	if last <= first {
		return 0
	}
	return float64(n) / (float64(last-first) / 1e9)
}

// liveSpans turns the traced window's records into spans: per job a root
// from due time to finish stamp, the client's submit and result fetch, and
// the server's queue and run stamps; the handler spans recorded inside the
// server become children of the run span.
func liveSpans(tr *tracer, ops []op) {
	handlers := make(map[string][]int)
	for _, sp := range tr.snapshot() {
		if sp.Name == "service.handler" {
			handlers[sp.Job] = append(handlers[sp.Job], sp.ID)
		}
	}
	for _, o := range ops {
		for _, r := range o {
			if r.err != nil {
				continue
			}
			root := tr.add(span{Name: "job", Job: r.name, Start: r.due, End: r.st.FinishedAt})
			tr.add(span{Parent: root, Name: "client.submit", Job: r.name, Start: r.sent, End: r.sent + int64(r.submitRT)})
			tr.add(span{Parent: root, Name: "server.queue", Job: r.name, Start: r.st.SubmittedAt, End: r.st.StartedAt})
			runID := tr.add(span{Parent: root, Name: "server.run", Job: r.name, Start: r.st.StartedAt, End: r.st.FinishedAt})
			for _, h := range handlers[r.name] {
				tr.setParent(h, runID)
			}
			// The fetch follows the finish stamp by up to a poll period, so
			// it lies outside the root span.
			tr.add(span{Parent: root, Name: "client.result_fetch", Job: r.name, Start: r.st.FinishedAt, End: r.st.FinishedAt + int64(r.fetchRT)})
		}
	}
}

// layers fills in the per-layer split of a traced run.
func layers(rep *report, plain, traced *windowResult, spans []span, extra map[string]float64, s *stack) {
	jobs := traced.jobs()
	var submit, accept, fetch, queue, late []float64
	local := 0
	for _, r := range jobs {
		if r.err != nil {
			continue
		}
		submit = append(submit, ms(r.submitRT))
		accept = append(accept, nsToMs(r.st.SubmittedAt-r.due))
		fetch = append(fetch, ms(r.fetchRT))
		queue = append(queue, nsToMs(r.st.StartedAt-r.st.SubmittedAt))
		late = append(late, nsToMs(r.sent-r.due))
		if r.st.Placement != nil && r.st.Placement.Locality == api.LocalityReplicaLocal {
			local++
		}
	}
	rep.pct("gateway.submit_p50_ms", submit, 0.5, "ms")
	rep.pct("gateway.accept_p50_ms", accept, 0.5, "ms")
	rep.pct("gateway.result_fetch_p50_ms", fetch, 0.5, "ms")
	rep.set("api.decode_validate_us", decodeValidateUs(jobs), "us")
	rep.pct("service.queue_wait_p50_ms", queue, 0.5, "ms")
	rep.pct("service.e2e_p90_ms", append(plain.e2e(), traced.e2e()...), 0.9, "ms")
	rep.pct("service.handler_p50_ms", perJobMs(spans, "service.handler"), 0.5, "ms")

	self := selfTimes(spans)
	var overhead []float64
	for _, sp := range spans {
		if sp.Name == "server.run" {
			overhead = append(overhead, nsToMs(self[sp.ID]))
		}
	}
	rep.pct("service.dispatch_overhead_p50_ms", overhead, 0.5, "ms")
	rep.set("service.shed", float64(s.runner.ShedCount()), "count")
	rep.set("service.retried", retried(s.runner.MetricsText()), "count")

	// The replay's share of the live handler span: covered child time of
	// each replayed job against the mean live handler span.
	var attributed []float64
	for _, sp := range spans {
		if sp.Name == "replay.job" {
			attributed = append(attributed, nsToMs(sp.dur()-self[sp.ID]))
		}
	}
	handlerMean := mean(perJobMs(spans, "service.handler"))
	share := 0.0
	if handlerMean > 0 {
		share = mean(attributed) / handlerMean
	}
	rep.set("service.handler_unattributed_share", 1-share, "ratio")
	rep.set("service.pipeline_overlap", extra["service.pipeline_overlap"], "ratio")

	rep.set("sched.place_us", 1000*median(durationsMs(spans, "sched.place")), "us")
	rep.set("sched.replica_local_share", float64(local)/float64(max(len(accept), 1)), "ratio")

	for _, m := range []struct{ span, name string }{
		{"dataset.resolve_hit", "dataset.resolve_hit_us"},
		{"dataset.resolve_miss", "dataset.resolve_miss_us"},
		{"dataset.clone", "dataset.clone_us"},
		{"dataset.put_mask", "dataset.put_mask_us"},
		{"dataset.put_ckpt", "dataset.put_ckpt_us"},
		{"ffn.net_build", "ffn.net_build_us"},
		{"ffn.normalize", "ffn.normalize_us"},
		{"ffn.seeds", "ffn.seeds_us"},
	} {
		rep.set(m.name, 1000*median(durationsMs(spans, m.span)), "us")
	}
	for _, m := range []struct{ span, name string }{
		{"ffn.grads", "ffn.grads_ms"},
		{"ffn.reduce", "ffn.reduce_ms"},
		{"ffn.apply", "ffn.apply_ms"},
		{"ffn.ckpt_encode", "ffn.ckpt_encode_ms"},
		{"ffn.ckpt_decode", "ffn.ckpt_decode_ms"},
		{"merra.ivt", "merra.ivt_ms_per_slab"},
		{"connect.label", "connect.label_ms_per_slab"},
	} {
		rep.set(m.name, median(durationsMs(spans, m.span)), "ms")
	}
	rep.set("dataset.hot_share", extra["dataset.hot_share"], "ratio")

	flood := median(perJobMs(spans, "ffn.segment"))
	rep.set("ffn.flood_ms", flood, "ms")
	rep.set("ffn.flood_steps", extra["ffn.flood_steps"], "count")
	gflop := extra["tensor.conv_gflop_per_job"]
	rep.set("tensor.conv_gflop_per_job", gflop, "GFLOP")
	gflops := 0.0
	if flood > 0 {
		gflops = gflop / (flood / 1000)
	}
	rep.set("tensor.conv_gflops", gflops, "GFLOP/s")

	n := float64(plain.completed())
	rep.set("proc.allocs_per_job", float64(plain.proc.mallocs)/n, "count")
	rep.set("proc.alloc_mb_per_job", float64(plain.proc.alloc)/(1<<20)/n, "MB")
	// A closed loop sends when the previous job ends, so it is never late.
	if sum(late) == 0 {
		rep.set("loadgen.late_p90_ms", 0, "ms")
	} else {
		rep.pct("loadgen.late_p90_ms", late, 0.9, "ms")
	}

	p50Plain := rep.quantile("trace.overhead_pct (untraced)", plain.e2e(), 0.5)
	p50Traced := rep.quantile("trace.overhead_pct (traced)", traced.e2e(), 0.5)
	rep.set("trace.overhead_pct", 100*(p50Traced/p50Plain-1), "%")
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// decodeValidateUs is the median time the gateway's request decoding and
// schema check take on the window's job bodies.
func decodeValidateUs(jobs []*jobRec) float64 {
	var out []float64
	for i, r := range jobs {
		if i >= 500 {
			break
		}
		start := time.Now()
		var req api.JobRequest
		if json.Unmarshal(r.body, &req) == nil {
			_ = req.Validate() // the window's bodies were all accepted
		}
		out = append(out, float64(time.Since(start))/1e3)
	}
	return median(out)
}

// retried sums the runner's jobs_retried counters from its metrics text.
func retried(text string) float64 {
	var total float64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "jobs_retried") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				total += v
			}
		}
	}
	return total
}
