package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"tdmd"
	"tdmd/internal/serve"
)

// api-mix: POST /api/solve over loopback HTTP against serve.New with
// its default config. Two closed-loop clients stand for controllers
// that wait for their plan. Three of every four requests name one of
// a 16-body hot set (cache hits once warm) and one names a body never
// sent before (a fresh solve), so the median sits in the hit mode —
// decode, build, fingerprint — and the 90th percentile in the miss
// mode, where the solve dominates.
const (
	apiClients   = 2
	apiNodes     = 100
	apiPoolSize  = 4096
	apiFlows     = 512
	apiHot       = 16
	apiK         = 8
	apiAlgorithm = "gtp"
	apiWarmOps   = 256  // closed-loop warm-up after the hot set is solved
	apiQualOps   = 2048 // saving_frac covers the first timed operations
	apiReplayOps = 256  // traced run: operations whose layers are replayed
)

type apiBench struct {
	pool *flowPool
	head []byte // request up to the first flow
	// specStart is where the spec document starts in a body; it ends
	// one byte before the body does.
	specStart int
}

// solveResponse is the part of the /api/solve response that must repeat
// bit for bit: everything except the elapsed time.
type solveResponse struct {
	Plan        []int   `json:"plan"`
	Bandwidth   float64 `json:"bandwidth"`
	Feasible    bool    `json:"feasible"`
	RawDemand   float64 `json:"raw_demand"`
	Optimal     bool    `json:"optimal"`
	Interrupted bool    `json:"interrupted"`
}

func (a solveResponse) identical(b solveResponse) bool {
	if len(a.Plan) != len(b.Plan) {
		return false
	}
	for i := range a.Plan {
		if a.Plan[i] != b.Plan[i] {
			return false
		}
	}
	return math.Float64bits(a.Bandwidth) == math.Float64bits(b.Bandwidth) &&
		math.Float64bits(a.RawDemand) == math.Float64bits(b.RawDemand) &&
		a.Feasible == b.Feasible && a.Optimal == b.Optimal && a.Interrupted == b.Interrupted
}

// apiOp is one finished request, kept for the checks after the phase.
type apiOp struct {
	n      int64
	body   int64
	status int
	source string
	resp   []byte
}

func newAPIBench(seed int64) (*apiBench, error) {
	pool, err := newFlowPool(apiNodes, apiPoolSize, seed)
	if err != nil {
		return nil, err
	}
	topo, err := pool.topologyJSON()
	if err != nil {
		return nil, err
	}
	b := &apiBench{pool: pool}
	b.head = fmt.Appendf(nil, `{"algorithm":%q,"k":%d,"spec":`, apiAlgorithm, apiK)
	b.specStart = len(b.head)
	b.head = append(b.head, '{')
	b.head = append(b.head, topo...)
	b.head = fmt.Appendf(b.head, `,"lambda":%g,"root":-1,"flows":[`, lambda)
	return b, nil
}

// bodyOf maps operation n to its body: every fourth operation gets a
// body index never used before, the others a seeded pick from the hot
// set (body indices 0..apiHot-1).
func (b *apiBench) bodyOf(n int64) int64 {
	if n%4 == 3 {
		return apiHot + n/4
	}
	return int64(splitmix(b.pool.seed, n) % apiHot)
}

// render splices body i into buf.
func (b *apiBench) render(i int64, buf []byte, idx []int) ([]byte, []int) {
	idx = b.pool.pick(i, apiFlows, idx)
	buf = append(buf[:0], b.head...)
	for j, k := range idx {
		if j > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, b.pool.json[k]...)
	}
	return append(buf, "]}}"...), idx
}

// apiClient is one closed-loop client's reusable state.
type apiClient struct {
	buf []byte
	idx []int
	ops []apiOp
}

// send posts operation n's body and keeps the response for the checks.
// A non-nil rec records the client span and tags the request so the
// server-side middleware can link its span to it.
func (b *apiBench) send(svc *service, cl *apiClient, n int64, rec *recorder) (time.Duration, bool) {
	body := b.bodyOf(n)
	cl.buf, cl.idx = b.render(body, cl.buf, cl.idx)
	req, err := http.NewRequest(http.MethodPost, svc.url+"/api/solve", bytes.NewReader(cl.buf))
	if err != nil {
		return 0, false
	}
	req.Header.Set("Content-Type", "application/json")
	var spanID int32
	var spanStart int64
	if rec != nil {
		spanID = rec.newID()
		req.Header.Set("X-Bench-Op", strconv.FormatInt(n, 10))
		req.Header.Set("X-Bench-Span", strconv.Itoa(int(spanID)))
		spanStart = rec.now()
	}
	start := time.Now()
	resp, err := svc.client.Do(req)
	if err != nil {
		return 0, false
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if rec != nil {
		rec.add(span{ID: spanID, Parent: -1, Req: n, Name: "op", Start: spanStart, End: rec.now()})
	}
	if err != nil {
		return 0, false
	}
	cl.ops = append(cl.ops, apiOp{n: n, body: body, status: resp.StatusCode,
		source: resp.Header.Get("X-Tdmd-Solve"), resp: out})
	return d, resp.StatusCode == http.StatusOK
}

// apiRun is one set-up: a started service whose hot set is solved.
type apiRun struct {
	svc     *service
	clients []*apiClient
	refs    map[int64]solveResponse // hot body → its fresh response
}

func (b *apiBench) setup(rec *recorder) (*apiRun, error) {
	var wrap func(http.Handler) http.Handler
	if rec != nil {
		wrap = handlerSpans(rec)
	}
	svc, err := startService(serve.Config{}, apiClients, wrap)
	if err != nil {
		return nil, err
	}
	r := &apiRun{svc: svc, refs: map[int64]solveResponse{}}
	for c := 0; c < apiClients; c++ {
		r.clients = append(r.clients, &apiClient{})
	}
	// Solve the hot set once, one request at a time: these fresh
	// responses are what every later cache hit must repeat.
	first := r.clients[0]
	for h := int64(0); h < apiHot; h++ {
		first.buf, first.idx = b.render(h, first.buf, first.idx)
		resp, err := svc.client.Post(svc.url+"/api/solve", "application/json", bytes.NewReader(first.buf))
		if err != nil {
			return nil, abandon(svc, err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("X-Tdmd-Solve") != string(serve.SourceFresh) {
			return nil, abandon(svc, fmt.Errorf("hot body %d: status %d source %q err %v",
				h, resp.StatusCode, resp.Header.Get("X-Tdmd-Solve"), err))
		}
		var ar solveResponse
		if err := json.Unmarshal(out, &ar); err != nil {
			return nil, abandon(svc, err)
		}
		if err := b.verifyFresh(h, ar); err != nil {
			return nil, abandon(svc, err)
		}
		r.refs[h] = ar
	}
	st := b.phase(r, 0, 0, apiWarmOps, nil)
	if st.failed > 0 {
		return nil, abandon(svc, fmt.Errorf("%d warm-up requests failed", st.failed))
	}
	return r, nil
}

// abandon closes the service after a failed set-up and returns err.
func abandon(svc *service, err error) error {
	svc.close()
	return err
}

// phase runs the closed loop over operations base, base+1, ... for
// the given seconds and at least minOps operations, keeping only this
// phase's responses for the checks.
func (b *apiBench) phase(r *apiRun, base int64, seconds float64, minOps int64, rec *recorder) loopStats {
	for _, c := range r.clients {
		c.ops = c.ops[:0]
	}
	return closedLoop(apiClients, seconds, minOps, func(c int, n int64) (time.Duration, bool) {
		return b.send(r.svc, r.clients[c], base+n, rec)
	})
}

// verifyFresh re-scores a freshly solved plan on the benchmark's own
// copy of the problem.
func (b *apiBench) verifyFresh(body int64, ar solveResponse) error {
	if err := verifyPlan(b.pool, b.pool.pick(body, apiFlows, nil), ar, apiK); err != nil {
		return fmt.Errorf("body %d: %w", body, err)
	}
	return nil
}

// check verifies every answered request of a phase starting at base.
// Requests that were not answered 200 already count as failed in the
// loop; check returns how many answered ones failed their checks, the
// first problem seen, and the mean saving over operations
// base..base+apiQualOps-1.
func (b *apiBench) check(r *apiRun, base int64) (failed int64, saving float64, err error) {
	// Indexed by operation, so the mean sums in the same order on every
	// run whichever client answered which operation.
	savings := make([]float64, apiQualOps)
	answered := 0
	for _, c := range r.clients {
		for _, op := range c.ops {
			if op.status != http.StatusOK {
				err = firstErr(err, fmt.Errorf("op %d: status %d: %s", op.n, op.status, op.resp))
				continue
			}
			var ar solveResponse
			cerr := json.Unmarshal(op.resp, &ar)
			if cerr == nil && op.source == string(serve.SourceCache) {
				if ref, ok := r.refs[op.body]; !ok || !ar.identical(ref) {
					cerr = fmt.Errorf("cache hit for body %d differs from its fresh response", op.body)
				}
			} else if cerr == nil {
				cerr = b.verifyFresh(op.body, ar)
			}
			if cerr != nil {
				failed++
				err = firstErr(err, fmt.Errorf("op %d: %w", op.n, cerr))
				continue
			}
			if op.n-base < apiQualOps {
				savings[op.n-base] = 1 - ar.Bandwidth/ar.RawDemand
				answered++
			}
		}
	}
	if answered != apiQualOps {
		err = firstErr(err, fmt.Errorf("%d quality operations answered, want %d", answered, apiQualOps))
	}
	return failed, mean(savings), err
}

// firstErr keeps the first error of a sequence.
func firstErr(have, next error) error {
	if have != nil {
		return have
	}
	return next
}

func runAPIMix(cfg runConfig) (*result, error) {
	b, err := newAPIBench(cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return b.traced(cfg)
	}
	r, setups, err := timeSetups(func() (*apiRun, error) { return b.setup(nil) },
		func(r *apiRun) error { return r.svc.close() })
	if err != nil {
		return nil, err
	}
	defer r.svc.close()
	st := b.phase(r, apiWarmOps, cfg.seconds, apiQualOps, nil)
	failed, saving, checkErr := b.check(r, apiWarmOps)
	return endToEndResult(setups, st, saving, failed, checkErr)
}

// traced is the per-layer run (see tracedPhases), then a replay of the
// first traced operations' bodies through the decode, build and
// fingerprint layers with spans around each call.
func (b *apiBench) traced(cfg runConfig) (*result, error) {
	rec := newRecorder(1 << 14)
	r, err := b.setup(rec)
	if err != nil {
		return nil, err
	}
	defer r.svc.close()
	t, err := tracedPhases(cfg, rec, apiWarmOps,
		func(base int64, seconds float64, rec *recorder) loopStats {
			return b.phase(r, base, seconds, apiQualOps, rec)
		},
		func(base int64) (int64, error) {
			failed, _, err := b.check(r, base)
			return failed, err
		})
	if err != nil {
		return nil, err
	}
	spans := rec.all() // the traced phase's; the replay appends its own

	vals := map[string]float64{}
	self := selfTimes(spans)
	var transport []float64
	hits, total := 0.0, 0.0
	for _, s := range spans {
		switch s.Name {
		case "op":
			transport = append(transport, self[s.ID])
		case "serve.handler":
			total++
			if s.Tag == string(serve.SourceCache) {
				hits++
			}
		}
	}
	vals["serve.transport_ms"] = mean(transport)
	vals["serve.cache_hit_ratio"] = hits / total
	vals["serve.handler_hit_ms"] = meanMS(spans, func(s span) bool {
		return s.Name == "serve.handler" && s.Tag == string(serve.SourceCache)
	})
	vals["serve.handler_miss_ms"] = meanMS(spans, func(s span) bool {
		return s.Name == "serve.handler" && s.Tag == string(serve.SourceFresh)
	})
	vals["serve.queue_wait_ms"] = histMeanMS(t.before, t.after, "tdmd_serve_queue_wait_seconds")
	vals["serve.reject_ratio"] = counterDelta(t.before, t.after, "tdmd_serve_rejected_total") / float64(t.traced.ops)
	solveKey := fmt.Sprintf("{algorithm=%q}", apiAlgorithm)
	vals["placement.solve_ms"] = histMeanMS(t.before, t.after, "tdmd_solve_duration_seconds"+solveKey)
	vals["placement.cover_ms"] = histMeanMS(t.before, t.after, fmt.Sprintf("tdmd_solve_phase_duration_seconds{algorithm=%q,phase=%q}", apiAlgorithm, "cover"))
	vals["placement.spend_ms"] = histMeanMS(t.before, t.after, fmt.Sprintf("tdmd_solve_phase_duration_seconds{algorithm=%q,phase=%q}", apiAlgorithm, "spend"))

	if err := b.replay(rec, t.base, vals); err != nil {
		return nil, err
	}
	return tracedResult(cfg, rec, t, vals)
}

// replay runs the bodies of operations base..base+apiReplayOps-1
// through DecodeSpecStrict, ProblemSpec.Build and
// SubmissionFingerprint, apiClients at a time, with a span around
// each call.
func (b *apiBench) replay(rec *recorder, base int64, vals map[string]float64) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var specBytes, flows, instBytes float64
	var replayErr error
	for c := 0; c < apiClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf []byte
			var idx []int
			for n := base + int64(c); n < base+apiReplayOps; n += apiClients {
				buf, idx = b.render(b.bodyOf(n), buf, idx)
				spec := buf[b.specStart : len(buf)-1]
				root := rec.newID()
				start := rec.now()
				var ps tdmd.ProblemSpec
				var p *tdmd.Problem
				var err error
				rec.timed("spec.decode", root, n, func() { ps, err = tdmd.DecodeSpecStrict(bytes.NewReader(spec)) })
				if err == nil {
					rec.timed("spec.build", root, n, func() { p, err = ps.Build() })
				}
				if err == nil {
					sub := serve.Submission{Problem: p, Algorithm: apiAlgorithm, K: apiK}
					rec.timed("serve.fingerprint", root, n, func() { serve.SubmissionFingerprint(sub) })
				}
				rec.add(span{ID: root, Parent: -1, Req: n, Name: "replay", Start: start, End: rec.now()})
				mu.Lock()
				replayErr = firstErr(replayErr, err)
				if err == nil {
					inst, _ := p.Instance().MemoryFootprint()
					specBytes += float64(len(spec))
					flows += float64(p.Instance().NumFlows())
					instBytes += float64(inst)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if replayErr != nil {
		return fmt.Errorf("replay: %w", replayErr)
	}
	decode := meanMS(rec.all(), named("spec.decode"))
	vals["spec.decode_ms"] = decode
	vals["spec.decode_mb_per_s"] = specBytes / apiReplayOps / (1 << 20) / (decode / 1000)
	vals["spec.build_ms"] = meanMS(rec.all(), named("spec.build"))
	vals["serve.fingerprint_ms"] = meanMS(rec.all(), named("serve.fingerprint"))
	vals["netsim.instance_kb_per_flow"] = instBytes / flows / 1024
	return nil
}
