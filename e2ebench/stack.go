package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/queue"
	"chaseci/internal/sched"
	"chaseci/internal/service"
)

// stack is one in-process chased deployment plus the benchmark's client.
// The server side is built exactly as `chased serve [-cluster]` builds it
// with its default flags; only the listener is a loopback port picked by
// the kernel.
type stack struct {
	runner *service.Runner
	srv    *http.Server
	served chan struct{} // closed when srv.Serve returns
	base   string

	// submitC carries POST /v1/jobs; fetchC carries status polls, result
	// and dataset fetches. Together they hold at most nproc connections.
	submitC, fetchC *http.Client
	tokens          []string // one bearer token per logged-in tenant
}

// chasedProviders is the -providers default of `chased serve`.
var chasedProviders = map[string]string{"ucsd.edu": "UCSD", "sdsc.edu": "SDSC", "example.edu": "Example"}

// startStack builds the runner and gateway, serves them on a loopback
// port, and logs in the given number of tenants.
func startStack(reg *service.Registry, cluster bool, tenants int) (*stack, error) {
	cfg := service.RunnerConfig{Workers: 4} // chased serve -workers default
	var runner *service.Runner
	if cluster {
		runner = service.NewClusterRunnerConfigured(reg, queue.NewStore(), sched.DefaultFabric(), cfg)
	} else {
		runner = service.NewRunnerConfigured(reg, queue.NewStore(), cfg)
	}
	gw := service.NewGateway(runner, service.GatewayOptions{
		Providers:      chasedProviders,
		TokenTTL:       12 * time.Hour,
		AllowAnonymous: true,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		runner.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &stack{
		runner: runner,
		srv:    &http.Server{Handler: gw},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	s.submitC, s.fetchC = clients(runtime.NumCPU())
	for i := 0; i < tenants; i++ {
		var out struct {
			Token string `json:"token"`
		}
		user := fmt.Sprintf("tenant%d@ucsd.edu", i)
		if _, err := s.call(s.submitC, "POST", "/v1/login", "", []byte(`{"user":"`+user+`"}`), &out); err != nil {
			s.close()
			return nil, fmt.Errorf("login %s: %w", user, err)
		}
		s.tokens = append(s.tokens, out.Token)
	}
	return s, nil
}

// clients splits nproc connections between submits and fetches, so a burst
// of result fetches never queues a submit behind it. With one CPU both
// share a single connection.
func clients(nproc int) (submit, fetch *http.Client) {
	mk := func(conns int) *http.Client {
		return &http.Client{Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
		}}
	}
	if nproc < 2 {
		c := mk(1)
		return c, c
	}
	return mk(nproc / 2), mk(nproc - nproc/2)
}

// close stops the server, waits for it to return, and stops the runner.
func (s *stack) close() {
	_ = s.srv.Close() // closes the listener and every connection; nothing to report
	<-s.served
	s.runner.Close()
	s.submitC.CloseIdleConnections()
	s.fetchC.CloseIdleConnections()
}

// errStatus is a non-2xx reply.
type errStatus struct {
	code int
	body string
}

func (e *errStatus) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// call makes one request and decodes a 2xx JSON reply into out (when
// non-nil). It returns the raw body.
func (s *stack) call(c *http.Client, method, path, token string, body []byte, out any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return nil, err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return raw, &errStatus{code: resp.StatusCode, body: string(bytes.TrimSpace(raw))}
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return raw, fmt.Errorf("%s %s: decode reply: %w", method, path, err)
		}
	}
	return raw, nil
}

// jobRec is one job as the client saw it.
type jobRec struct {
	name     string // the request's Name; keys the handler span
	tenant   int
	body     []byte
	due      int64 // scheduled send (open loop) or send time (closed loop), UnixNano
	sent     int64
	submitRT time.Duration
	fetchRT  time.Duration
	id       string
	st       api.JobStatus // terminal status
	err      error         // submit, run, or check failure
}

// e2e is the job's latency from its due time to the server's finish stamp.
func (r *jobRec) e2e() int64 { return r.st.FinishedAt - r.due }

// submit posts the job. For a closed loop due is the send time.
func (s *stack) submit(r *jobRec, openLoop bool) {
	start := time.Now()
	r.sent = start.UnixNano()
	if !openLoop {
		r.due = r.sent
	}
	var out api.SubmitResponse
	_, err := s.call(s.submitC, "POST", "/v1/jobs", s.tokens[r.tenant], r.body, &out)
	r.submitRT = time.Since(start)
	if err != nil {
		r.err = fmt.Errorf("submit %s: %w", r.name, err)
		return
	}
	r.id = out.ID
}

// pollEvery is the client's status-poll period. Latency comes from the
// server's stamps, so the period costs client CPU but never shows in e2e.
const pollEvery = 2 * time.Millisecond

// jobTimeout bounds how long the client waits for one job.
const jobTimeout = 60 * time.Second

// awaitStatus polls the job's status until it is terminal. A job that did
// not succeed is an error.
func (s *stack) awaitStatus(r *jobRec) {
	if r.err != nil {
		return
	}
	deadline := time.Now().Add(jobTimeout)
	for {
		if _, err := s.call(s.fetchC, "GET", "/v1/jobs/"+r.id, s.tokens[r.tenant], nil, &r.st); err != nil {
			r.err = fmt.Errorf("status %s: %w", r.id, err)
			return
		}
		if r.st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			r.err = fmt.Errorf("job %s still %s after %v", r.id, r.st.State, jobTimeout)
			return
		}
		time.Sleep(pollEvery)
	}
	if r.st.State != api.StateSucceeded {
		r.err = fmt.Errorf("job %s %s: %s", r.id, r.st.State, r.st.Error)
	}
}

// fetchResult fetches a finished job's result payload.
func (s *stack) fetchResult(r *jobRec) json.RawMessage {
	if r.err != nil {
		return nil
	}
	start := time.Now()
	var env api.ResultEnvelope
	_, err := s.call(s.fetchC, "GET", "/v1/jobs/"+r.id+"/result", s.tokens[r.tenant], nil, &env)
	r.fetchRT = time.Since(start)
	if err != nil {
		r.err = fmt.Errorf("result %s: %w", r.id, err)
		return nil
	}
	if len(env.Result) == 0 {
		r.err = errors.New("result " + r.id + ": empty payload")
		return nil
	}
	return env.Result
}

// runClosed submits one job, waits for it, and checks its result.
func (s *stack) runClosed(r *jobRec, check func(json.RawMessage) error) {
	s.submit(r, false)
	s.awaitStatus(r)
	raw := s.fetchResult(r)
	if r.err == nil {
		if err := check(raw); err != nil {
			r.err = fmt.Errorf("check %s: %w", r.id, err)
		}
	}
}

// mustJSON marshals a request built by this program.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // a request struct always marshals
	}
	return b
}
