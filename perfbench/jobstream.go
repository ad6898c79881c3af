package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"tdmd"
	"tdmd/internal/serve"
)

// job-stream: NDJSON POST /v1/jobs?algorithm=gtp-lazy with 20,000-flow
// tdmd-flows/1 bodies, every one distinct, from two closed-loop
// clients, each polling GET /v1/jobs/{id} every millisecond until its
// job is done. Stream decode and instance build dominate a job; the
// solve is small. The job store is filled to its cap during set-up,
// so the finished jobs it retains hold memory at a steady plateau.
//
// Two clients, not one, so that neither P sits idle while a client
// sleeps between polls. With one client, two back-to-back sets of ten
// runs moved p90 by 29%. With two, no median of two back-to-back sets
// moved by more than 14%.
const (
	jobClients   = 2
	jobNodes     = 200
	jobPoolSize  = 32768
	jobFlows     = 20000
	jobAlgorithm = "gtp-lazy"
	jobMaxJobs   = 16
	jobPoll      = time.Millisecond
	jobQualOps   = 64 // saving_frac covers the first timed jobs
	jobReplayOps = 16 // traced run: jobs whose layers are replayed
)

type jobBench struct {
	pool   *flowPool
	header []byte
}

// jobResponse is the part of the job wire shape the client reads.
type jobResponse struct {
	ID     string         `json:"id"`
	State  string         `json:"state"`
	Result *solveResponse `json:"result"`
	Error  string         `json:"error"`
}

// jobOp is one finished job, kept for the checks after the phase.
type jobOp struct {
	n     int64
	err   error // transport or protocol failure
	final jobResponse
}

// jobClient is one closed-loop client's reusable state.
type jobClient struct {
	buf   []byte
	idx   []int
	ops   []jobOp
	polls int64
}

type jobRun struct {
	svc     *service
	clients []*jobClient
}

// reset drops the finished jobs and poll counts of the previous phase.
func (r *jobRun) reset() {
	for _, c := range r.clients {
		c.ops, c.polls = c.ops[:0], 0
	}
}

func newJobBench(seed int64) (*jobBench, error) {
	pool, err := newFlowPool(jobNodes, jobPoolSize, seed)
	if err != nil {
		return nil, err
	}
	topo, err := pool.topologyJSON()
	if err != nil {
		return nil, err
	}
	h := fmt.Appendf(nil, `{"format":%q,`, tdmd.StreamFormat)
	h = append(h, topo...)
	h = fmt.Appendf(h, `,"lambda":%g,"root":-1}`+"\n", lambda)
	return &jobBench{pool: pool, header: h}, nil
}

// render splices the stream of job n into buf: the header line, then
// one flow line per picked pool flow.
func (b *jobBench) render(n int64, buf []byte, idx []int) ([]byte, []int) {
	idx = b.pool.pick(n, jobFlows, idx)
	buf = append(buf[:0], b.header...)
	for _, k := range idx {
		buf = append(buf, b.pool.json[k]...)
		buf = append(buf, '\n')
	}
	return buf, idx
}

// do submits job n and polls it to completion. rec non-nil records
// the operation's spans.
func (b *jobBench) do(svc *service, cl *jobClient, n int64, rec *recorder) (time.Duration, bool) {
	cl.buf, cl.idx = b.render(n, cl.buf, cl.idx)
	op := jobOp{n: n}
	var opID int32 = -1
	var opStart int64
	header := func(req *http.Request) {
		if rec != nil {
			req.Header.Set("X-Bench-Op", strconv.FormatInt(n, 10))
			req.Header.Set("X-Bench-Span", strconv.Itoa(int(opID)))
		}
	}
	if rec != nil {
		opID = rec.newID()
		opStart = rec.now()
	}
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, svc.url+"/v1/jobs?algorithm="+jobAlgorithm, bytes.NewReader(cl.buf))
	if err != nil {
		op.err = err
		cl.ops = append(cl.ops, op)
		return 0, false
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	header(req)
	var created jobResponse
	op.err = getJSON(svc.client, req, http.StatusAccepted, &created)
	var acceptEnd int64
	if rec != nil {
		acceptEnd = rec.now()
		rec.add(span{ID: rec.newID(), Parent: opID, Req: n, Name: "job.accept", Start: opStart, End: acceptEnd})
	}
	for op.err == nil {
		time.Sleep(jobPoll)
		req, err := http.NewRequest(http.MethodGet, svc.url+"/v1/jobs/"+created.ID, nil)
		if err != nil {
			op.err = err
			break
		}
		header(req)
		cl.polls++
		var got jobResponse
		if op.err = getJSON(svc.client, req, http.StatusOK, &got); op.err != nil {
			break
		}
		if got.State == string(serve.JobQueued) || got.State == string(serve.JobRunning) {
			continue
		}
		op.final = got
		break
	}
	d := time.Since(start)
	if rec != nil {
		end := rec.now()
		rec.add(span{ID: rec.newID(), Parent: opID, Req: n, Name: "job.wait", Start: acceptEnd, End: end})
		rec.add(span{ID: opID, Parent: -1, Req: n, Name: "op", Start: opStart, End: end})
	}
	cl.ops = append(cl.ops, op)
	return d, op.err == nil && op.final.State == string(serve.JobDone)
}

// getJSON sends req, requires the status and decodes the JSON body.
func getJSON(client *http.Client, req *http.Request, status int, v any) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != status {
		return fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, body)
	}
	return json.Unmarshal(body, v)
}

// setup starts a service with the job cap and fills the store with
// jobMaxJobs finished jobs (operations 0..jobMaxJobs-1), run by the
// same closed-loop clients as the timed phase.
func (b *jobBench) setup(rec *recorder) (*jobRun, error) {
	var wrap func(http.Handler) http.Handler
	if rec != nil {
		wrap = handlerSpans(rec)
	}
	svc, err := startService(serve.Config{MaxJobs: jobMaxJobs}, jobClients, wrap)
	if err != nil {
		return nil, err
	}
	r := &jobRun{svc: svc}
	for c := 0; c < jobClients; c++ {
		r.clients = append(r.clients, &jobClient{})
	}
	if st := closedLoop(jobClients, 0, jobMaxJobs, func(c int, n int64) (time.Duration, bool) {
		return b.do(svc, r.clients[c], n, nil)
	}); st.failed > 0 {
		return nil, abandon(svc, fmt.Errorf("%d warm-up jobs failed", st.failed))
	}
	r.reset()
	return r, nil
}

func (b *jobBench) phase(r *jobRun, base int64, seconds float64, rec *recorder) loopStats {
	r.reset()
	return closedLoop(jobClients, seconds, jobQualOps, func(c int, n int64) (time.Duration, bool) {
		return b.do(r.svc, r.clients[c], base+n, rec)
	})
}

// check re-scores every finished job's plan on the benchmark's own
// copy of its problem; see apiBench.check for the return values.
func (b *jobBench) check(r *jobRun, base int64) (failed int64, saving float64, err error) {
	// Indexed by operation, so the mean sums in the same order on every
	// run whichever client ran which job.
	savings := make([]float64, jobQualOps)
	answered := 0
	var idx []int
	for _, c := range r.clients {
		for _, op := range c.ops {
			if op.err != nil || op.final.State != string(serve.JobDone) || op.final.Result == nil {
				err = firstErr(err, fmt.Errorf("job %d: %v state %q %s", op.n, op.err, op.final.State, op.final.Error))
				continue
			}
			res := *op.final.Result
			idx = b.pool.pick(op.n, jobFlows, idx)
			if cerr := verifyPlan(b.pool, idx, res, 0); cerr != nil {
				failed++
				err = firstErr(err, fmt.Errorf("job %d: %w", op.n, cerr))
				continue
			}
			if op.n-base < jobQualOps {
				savings[op.n-base] = 1 - res.Bandwidth/res.RawDemand
				answered++
			}
		}
	}
	if answered != jobQualOps {
		err = firstErr(err, fmt.Errorf("%d quality jobs answered, want %d", answered, jobQualOps))
	}
	return failed, mean(savings), err
}

func runJobStream(cfg runConfig) (*result, error) {
	b, err := newJobBench(cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return b.traced(cfg)
	}
	r, setups, err := timeSetups(func() (*jobRun, error) { return b.setup(nil) },
		func(r *jobRun) error { return r.svc.close() })
	if err != nil {
		return nil, err
	}
	defer r.svc.close()
	st := b.phase(r, jobMaxJobs, cfg.seconds, nil)
	failed, saving, checkErr := b.check(r, jobMaxJobs)
	return endToEndResult(setups, st, saving, failed, checkErr)
}

// traced is the per-layer run (see tracedPhases), then the first
// traced jobs' bodies replayed through ProblemBuilder.ReadStream and
// Build with spans around each call.
func (b *jobBench) traced(cfg runConfig) (*result, error) {
	rec := newRecorder(1 << 14)
	r, err := b.setup(rec)
	if err != nil {
		return nil, err
	}
	defer r.svc.close()
	t, err := tracedPhases(cfg, rec, jobMaxJobs,
		func(base int64, seconds float64, rec *recorder) loopStats { return b.phase(r, base, seconds, rec) },
		func(base int64) (int64, error) {
			failed, _, err := b.check(r, base)
			return failed, err
		})
	if err != nil {
		return nil, err
	}
	var polls int64
	for _, c := range r.clients {
		polls += c.polls
	}
	vals := map[string]float64{
		"serve.job_accept_ms": meanMS(rec.all(), named("job.accept")),
		"serve.job_wait_ms":   meanMS(rec.all(), named("job.wait")),
		"serve.polls_per_op":  float64(polls) / float64(t.traced.ops),
		"serve.queue_wait_ms": histMeanMS(t.before, t.after, "tdmd_serve_queue_wait_seconds"),
		"serve.reject_ratio":  counterDelta(t.before, t.after, "tdmd_serve_rejected_total") / float64(t.traced.ops),
		"placement.solve_ms":  histMeanMS(t.before, t.after, fmt.Sprintf("tdmd_solve_duration_seconds{algorithm=%q}", jobAlgorithm)),
	}
	if err := b.replay(rec, t.base, vals); err != nil {
		return nil, err
	}
	return tracedResult(cfg, rec, t, vals)
}

// replay decodes and builds the bodies of jobs base..base+jobReplayOps-1.
func (b *jobBench) replay(rec *recorder, base int64, vals map[string]float64) error {
	var buf []byte
	var idx []int
	var streamBytes, flows, instBytes float64
	for n := base; n < base+jobReplayOps; n++ {
		buf, idx = b.render(n, buf, idx)
		root := rec.newID()
		start := rec.now()
		pb := tdmd.NewProblemBuilder()
		var p *tdmd.Problem
		var err error
		rec.timed("stream.read", root, n, func() { err = pb.ReadStream(bytes.NewReader(buf)) })
		if err == nil {
			rec.timed("stream.build", root, n, func() { p, err = pb.Build() })
		}
		rec.add(span{ID: root, Parent: -1, Req: n, Name: "replay", Start: start, End: rec.now()})
		if err != nil {
			return fmt.Errorf("replay job %d: %w", n, err)
		}
		inst, _ := p.Instance().MemoryFootprint()
		streamBytes += float64(len(buf))
		flows += float64(p.Instance().NumFlows())
		instBytes += float64(inst)
	}
	read := meanMS(rec.all(), named("stream.read"))
	vals["stream.read_ms"] = read
	vals["stream.decode_mb_per_s"] = streamBytes / jobReplayOps / (1 << 20) / (read / 1000)
	vals["stream.build_ms"] = meanMS(rec.all(), named("stream.build"))
	vals["netsim.instance_kb_per_flow"] = instBytes / flows / 1024
	return nil
}
