package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tdmd"
)

// setupRuns is how many times each workload builds its set-up; the
// reported setup_s is the median, so one slow build does not move it.
const setupRuns = 5

// timeSetups builds a workload's set-up setupRuns times and returns
// the last one with every build's duration in seconds. Each earlier
// set-up is discarded and its memory returned before the next build
// starts, outside the timing.
func timeSetups[T any](setup func() (T, error), discard func(T) error) (T, []float64, error) {
	var last T
	var secs []float64
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			if err := discard(last); err != nil {
				return last, nil, err
			}
			debug.FreeOSMemory()
		}
		start := time.Now()
		s, err := setup()
		if err != nil {
			return last, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = s
	}
	return last, secs, nil
}

// loopStats is what a timed phase of closed-loop clients produced.
type loopStats struct {
	ops       int64     // operations completed (ok or failed)
	failed    int64     // operations that failed in the loop itself
	latencies []float64 // per-op latency in ms, ops that succeeded
	elapsed   time.Duration
	cpu       time.Duration // process user+sys CPU over the phase
	rt        runtimeDelta
	// rssResetErr is why the peak-RSS mark could not be reset at the
	// start of the phase; the phase's peak is then unknown.
	rssResetErr error
}

// closedLoop runs clients goroutines, each sending its next operation
// only after the previous one completed. Operations are numbered from
// a shared counter, so operation n is the same input on every run no
// matter which client takes it. The phase lasts until the deadline
// has passed and at least minOps operations were taken. op returns
// the operation's latency and whether it succeeded; work it does
// outside that latency (checks, bookkeeping) still counts toward the
// phase's wall clock, so op keeps it small.
func closedLoop(clients int, seconds float64, minOps int64, op func(client int, n int64) (time.Duration, bool)) loopStats {
	var next atomic.Int64
	lat := make([][]float64, clients)
	fails := make([]int64, clients)
	rssResetErr := resetPeakRSS()
	rt0 := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				n := next.Add(1) - 1
				if n >= minOps && time.Now().After(deadline) {
					return
				}
				d, ok := op(c, n)
				if ok {
					lat[c] = append(lat[c], float64(d)/float64(time.Millisecond))
				} else {
					fails[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	st := loopStats{elapsed: time.Since(start), cpu: cpuTime() - cpu0, rssResetErr: rssResetErr}
	st.rt = readRuntime().sub(rt0)
	for c := range lat {
		st.latencies = append(st.latencies, lat[c]...)
		st.failed += fails[c]
	}
	st.ops = int64(len(st.latencies)) + st.failed
	sort.Float64s(st.latencies)
	return st
}

// percentile returns the p-quantile (0..1) of sorted values by linear
// interpolation between order statistics.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS high-water mark, so the
// peak read after a timed phase belongs to that phase and not to the
// set-ups before it.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size in MiB since the
// last resetPeakRSS (VmHWM).
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// runtimeDelta carries the Go runtime counters a phase consumed.
type runtimeDelta struct {
	allocBytes float64
	gcCPU      float64
	busyCPU    float64 // CPU time the Ps were not idle
	heapLive   float64 // a level, not a delta: live heap at the end
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/live:bytes",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeDelta{allocBytes: val(0), gcCPU: val(1), busyCPU: val(2) - val(3), heapLive: val(4)}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{
		allocBytes: a.allocBytes - b.allocBytes,
		gcCPU:      a.gcCPU - b.gcCPU,
		busyCPU:    a.busyCPU - b.busyCPU,
		heapLive:   a.heapLive,
	}
}

// endToEnd assembles the end-to-end metric set from the median set-up
// time, the timed phase and the plan-quality mean. The tail is p90 on
// every workload: a run has at least ten samples beyond it (about 90
// on job-stream), and on a shared host p99 moves with vCPU stalls far
// more than with the program.
func endToEnd(setups []float64, st loopStats, saving float64) (map[string]metric, error) {
	if st.rssResetErr != nil {
		return nil, fmt.Errorf("resetting the peak-RSS mark: %w", st.rssResetErr)
	}
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	ok := float64(len(st.latencies))
	return map[string]metric{
		"setup_s":        {median(setups), "s"},
		"ops_per_s":      {ok / st.elapsed.Seconds(), "1/s"},
		"latency_p50_ms": {percentile(st.latencies, 0.5), "ms"},
		"latency_p90_ms": {percentile(st.latencies, 0.90), "ms"},
		"cpu_ms_per_op":  {float64(st.cpu) / float64(time.Millisecond) / float64(st.ops), "ms"},
		"peak_rss_mb":    {peak, "MB"},
		"saving_frac":    {saving, "frac"},
	}, nil
}

// endToEndResult is an untraced run's result line.
func endToEndResult(setups []float64, st loopStats, saving float64, checkFailed int64, checkErr error) (*result, error) {
	metrics, err := endToEnd(setups, st, saving)
	if err != nil {
		return nil, err
	}
	report(checkErr)
	return &result{
		Correct:   checkErr == nil,
		Attempted: st.ops,
		Failed:    st.failed + checkFailed,
		Metrics:   metrics,
	}, nil
}

// tracedRun is what the common part of a traced run produced.
type tracedRun struct {
	untraced, traced loopStats
	base             int64          // first operation of the traced phase
	before, after    map[string]any // metric registry around the traced phase
	checkFailed      int64
	checkErr         error
}

// tracedPhases is the protocol every traced run follows on one
// set-up: an untraced phase and a traced phase of half the run each,
// the first starting at operation base, each followed by its output
// check, with the program's metric registry read just before and just
// after the traced phase. phase runs the operations from a given base
// for a given time, recording spans when rec is non-nil; check
// verifies the phase that just ran.
func tracedPhases(cfg runConfig, rec *recorder, base int64,
	phase func(base int64, seconds float64, rec *recorder) loopStats,
	check func(base int64) (failed int64, err error)) (*tracedRun, error) {
	half := cfg.seconds / 2
	t := &tracedRun{}
	t.untraced = phase(base, half, nil)
	failedA, errA := check(base)
	t.base = base + t.untraced.ops
	var err error
	if t.before, err = metricsSnapshot(); err != nil {
		return nil, err
	}
	rec.on.Store(true)
	t.traced = phase(t.base, half, rec)
	rec.on.Store(false)
	if t.after, err = metricsSnapshot(); err != nil {
		return nil, err
	}
	failedB, errB := check(t.base)
	t.checkFailed = failedA + failedB
	t.checkErr = firstErr(errA, errB)
	return t, nil
}

// tracedResult writes a traced run's spans and returns its result
// line with the per-layer metrics.
func tracedResult(cfg runConfig, rec *recorder, t *tracedRun, vals map[string]float64) (*result, error) {
	// One file per workload, replaced by its next traced run.
	if err := rec.write(cfg.traceDir, cfg.workload+".jsonl"); err != nil {
		return nil, err
	}
	metrics, err := perLayer(t.untraced, t.traced, vals)
	if err != nil {
		return nil, err
	}
	report(t.checkErr)
	return &result{
		Correct:   t.checkErr == nil,
		Attempted: t.untraced.ops + t.traced.ops,
		Failed:    t.untraced.failed + t.traced.failed + t.checkFailed,
		Metrics:   metrics,
	}, nil
}

// report prints the first failed check, if any, to stderr.
func report(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
	}
}

// perLayerUnits lists every per-layer metric with its unit. Every
// traced run reports all of them; a layer the workload never calls
// into reports 0 (see NOTES.md for which workload exercises which).
var perLayerUnits = map[string]string{
	"serve.handler_hit_ms":        "ms",
	"serve.handler_miss_ms":       "ms",
	"serve.transport_ms":          "ms",
	"serve.cache_hit_ratio":       "frac",
	"serve.queue_wait_ms":         "ms",
	"serve.reject_ratio":          "frac",
	"spec.decode_ms":              "ms",
	"spec.decode_mb_per_s":        "MB/s",
	"spec.build_ms":               "ms",
	"serve.fingerprint_ms":        "ms",
	"placement.solve_ms":          "ms",
	"placement.cover_ms":          "ms",
	"placement.spend_ms":          "ms",
	"serve.job_accept_ms":         "ms",
	"serve.job_wait_ms":           "ms",
	"serve.polls_per_op":          "count",
	"stream.read_ms":              "ms",
	"stream.decode_mb_per_s":      "MB/s",
	"stream.build_ms":             "ms",
	"netsim.instance_kb_per_flow": "KB",
	"netsim.rebuild_ms":           "ms",
	"online.add_ms":               "ms",
	"online.remove_ms":            "ms",
	"online.replans_per_kop":      "count",
	"online.moves_per_kop":        "count",
	"online.rejected_frac":        "frac",
	"runtime.heap_live_mb":        "MB",
	"runtime.alloc_kb_per_op":     "KB",
	"runtime.gc_cpu_frac":         "frac",
	"trace.overhead_frac":         "frac",
}

// perLayer returns the full per-layer set with the given values filled
// in and every other metric at 0. The runtime and tracing-overhead
// metrics are common to all workloads: untraced is the phase they are
// read from, traced the phase whose cost is compared against it.
func perLayer(untraced, traced loopStats, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		out[name] = metric{0, unit}
	}
	ops := float64(untraced.ops)
	vals["runtime.alloc_kb_per_op"] = untraced.rt.allocBytes / 1024 / ops
	vals["runtime.gc_cpu_frac"] = untraced.rt.gcCPU / untraced.rt.busyCPU
	vals["runtime.heap_live_mb"] = traced.rt.heapLive / (1 << 20)
	// Mean operation latency, traced over untraced, minus one. Replays
	// of layer calls happen outside operation latencies.
	vals["trace.overhead_frac"] = mean(traced.latencies)/mean(untraced.latencies) - 1
	for name, v := range vals {
		unit, ok := perLayerUnits[name]
		if !ok {
			return nil, fmt.Errorf("unknown per-layer metric %q", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s is %v", name, v)
		}
		out[name] = metric{v, unit}
	}
	return out, nil
}

// metricsSnapshot reads the program's own metric registry through the
// public JSON exposition.
func metricsSnapshot() (map[string]any, error) {
	var buf bytes.Buffer
	if err := tdmd.WriteMetricsJSON(&buf); err != nil {
		return nil, err
	}
	m := map[string]any{}
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		return nil, err
	}
	return m, nil
}

// counterDelta is after−before for a counter or gauge series (0 when
// the series does not exist yet).
func counterDelta(before, after map[string]any, key string) float64 {
	num := func(m map[string]any) float64 {
		v, _ := m[key].(float64)
		return v
	}
	return num(after) - num(before)
}

// histDelta returns the observation count and sum a histogram series
// gained between two snapshots.
func histDelta(before, after map[string]any, key string) (count, sum float64) {
	get := func(m map[string]any) (float64, float64) {
		h, _ := m[key].(map[string]any)
		c, _ := h["count"].(float64)
		s, _ := h["sum"].(float64)
		return c, s
	}
	c0, s0 := get(before)
	c1, s1 := get(after)
	return c1 - c0, s1 - s0
}

// histMeanMS is the mean observation, in ms, a seconds-valued
// histogram gained between two snapshots (0 when it gained none).
func histMeanMS(before, after map[string]any, key string) float64 {
	c, s := histDelta(before, after, key)
	if c == 0 {
		return 0
	}
	return s / c * 1000
}

// splitmix is a stateless 64-bit mixer: inputs derived as
// splitmix(seed, i) depend only on the seed and the index.
func splitmix(seed int64, i int64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
