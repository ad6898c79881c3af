package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"tdmd"
)

// online-churn: the online controller (tdmd.NewOnlinePlacer) with a
// constant population of live flows. Each operation is one departure
// of a seeded-random live flow plus one arrival of the next pool flow.
// AddFlow rebuilds the instance over every live flow, so this workload
// exercises the netsim build path and bypasses HTTP, decode and the
// plan cache. The controller is one goroutine, so the workload runs
// with one P. Over five runs (seeds 211-215, IQR over median),
// peak_rss_mb spread 26% with two Ps and 5.6% with one, while ops_per_s
// spread 6.1% and 8.4%.
const (
	churnNodes      = 200
	churnPoolSize   = 16384
	churnLive       = 2000
	churnK          = 8
	churnCheckEvery = 250  // Bandwidth() is cross-checked every this many ops
	churnQualOps    = 4000 // saving_frac covers the checkpoints in the first ops
)

type churnBench struct {
	pool *flowPool
}

type churnRun struct {
	o *tdmd.OnlinePlacer
	// live is the benchmark's own record of the live flows: the pool
	// flows it admitted, each carrying the ID the controller assigned,
	// in arrival order. Checkpoints evaluate the plan over it.
	live []tdmd.Flow
	// rejected counts arrivals the controller refused (ErrInfeasible).
	rejected int64
	// badChecks counts failed checkpoints; each counts as a failed op.
	badChecks int64
	savings   []float64
	checkErr  error
}

// setup fills a fresh controller with churnLive arrivals (pool flows
// 0..churnLive-1), then compacts it once, as an operator would after a
// fill: the plan is re-optimized for the whole live set, so plan
// quality does not hinge on which few flows happened to arrive first.
func (b *churnBench) setup() (*churnRun, error) {
	o, err := tdmd.NewOnlinePlacer(b.pool.g, lambda, churnK)
	if err != nil {
		return nil, err
	}
	r := &churnRun{o: o}
	ctx := context.Background()
	for j := 0; j < churnLive; j++ {
		f := b.pool.flows[j]
		id, err := o.AddFlow(ctx, f)
		if err != nil {
			return nil, fmt.Errorf("fill arrival %d: %w", j, err)
		}
		f.ID = id
		r.live = append(r.live, f)
	}
	if _, err := o.Compact(ctx); err != nil {
		return nil, fmt.Errorf("compacting after the fill: %w", err)
	}
	return r, nil
}

// do runs operation n: a departure, then an arrival. rec non-nil adds
// spans around both calls and, after the operation, around a rebuild
// of the instance over the live flows.
func (b *churnBench) do(r *churnRun, n int64, rec *recorder) (time.Duration, bool) {
	pick := int(splitmix(b.pool.seed, n) % uint64(len(r.live)))
	gone := r.live[pick].ID
	r.live = slices.Delete(r.live, pick, pick+1)
	arrival := b.pool.flows[(churnLive+n)%churnPoolSize]

	var id int
	var removed bool
	var err error
	start := time.Now()
	if rec == nil {
		removed = r.o.RemoveFlow(gone)
		id, err = r.o.AddFlow(context.Background(), arrival)
	} else {
		opID := rec.newID()
		opStart := rec.now()
		rec.timed("online.remove", opID, n, func() { removed = r.o.RemoveFlow(gone) })
		rec.timed("online.add", opID, n, func() { id, err = r.o.AddFlow(context.Background(), arrival) })
		rec.add(span{ID: opID, Parent: -1, Req: n, Name: "op", Start: opStart, End: rec.now()})
	}
	d := time.Since(start)
	if rec != nil {
		// Only the time matters: the live set was validated flow by
		// flow as it arrived, and the checkpoints rebuild it checked.
		rec.timed("netsim.rebuild", -1, n, func() { _, _ = tdmd.NewProblem(b.pool.g, r.live, lambda) })
	}

	switch {
	case !removed:
		r.checkErr = firstErr(r.checkErr, fmt.Errorf("op %d: live flow %d was not removed", n, gone))
		return d, false
	case errors.Is(err, tdmd.ErrInfeasible):
		r.rejected++
		return d, false
	case err != nil:
		r.checkErr = firstErr(r.checkErr, fmt.Errorf("op %d: %w", n, err))
		return d, false
	}
	arrival.ID = id
	r.live = append(r.live, arrival)
	if size := r.o.Plan().Size(); size > churnK {
		r.checkErr = firstErr(r.checkErr, fmt.Errorf("op %d: plan has %d boxes, k=%d", n, size, churnK))
		return d, false
	}
	return d, true
}

// checkpoint compares the controller's own Bandwidth with an
// evaluation of its plan over the benchmark's own record of the live
// flows, built from the pool and never from the controller's state,
// and returns the plan's saving. A controller that lost or duplicated
// a live flow, or changed one's rate, shows here as a wrong flow count
// or bandwidth.
func (b *churnBench) checkpoint(r *churnRun) (float64, error) {
	if got := len(r.o.Flows()); got != len(r.live) {
		return 0, fmt.Errorf("controller holds %d live flows, want %d", got, len(r.live))
	}
	bw, err := r.o.Bandwidth()
	if err != nil {
		return 0, err
	}
	p, err := tdmd.NewProblem(b.pool.g, r.live, lambda)
	if err != nil {
		return 0, err
	}
	ev := p.Evaluate(r.o.Plan())
	if math.Float64bits(ev.Bandwidth) != math.Float64bits(bw) || !ev.Feasible {
		return 0, fmt.Errorf("controller bandwidth %v, independent evaluation %v (feasible %v)", bw, ev.Bandwidth, ev.Feasible)
	}
	return 1 - bw/p.Instance().RawDemand(), nil
}

// phase runs operations base, base+1, ... with a checkpoint after
// every churnCheckEvery-th; savings are kept for checkpoints among the
// first churnQualOps operations. The phase's counters and first error
// start from zero.
func (b *churnBench) phase(r *churnRun, base int64, seconds float64, rec *recorder) loopStats {
	r.savings, r.rejected, r.badChecks, r.checkErr = r.savings[:0], 0, 0, nil
	return closedLoop(1, seconds, churnQualOps, func(_ int, n int64) (time.Duration, bool) {
		d, ok := b.do(r, base+n, rec)
		if (n+1)%churnCheckEvery == 0 {
			saving, err := b.checkpoint(r)
			if err != nil {
				r.badChecks++
				r.checkErr = firstErr(r.checkErr, fmt.Errorf("checkpoint after op %d: %w", base+n, err))
			} else if n < churnQualOps {
				r.savings = append(r.savings, saving)
			}
		}
		return d, ok
	})
}

func runOnlineChurn(cfg runConfig) (*result, error) {
	runtime.GOMAXPROCS(1)
	pool, err := newFlowPool(churnNodes, churnPoolSize, cfg.seed)
	if err != nil {
		return nil, err
	}
	b := &churnBench{pool: pool}
	if cfg.trace {
		return b.traced(cfg)
	}
	r, setups, err := timeSetups(b.setup, func(*churnRun) error { return nil })
	if err != nil {
		return nil, err
	}
	st := b.phase(r, 0, cfg.seconds, nil)
	if len(r.savings) != churnQualOps/churnCheckEvery {
		r.checkErr = firstErr(r.checkErr, fmt.Errorf("%d quality checkpoints, want %d", len(r.savings), churnQualOps/churnCheckEvery))
	}
	return endToEndResult(setups, st, mean(r.savings), r.badChecks, r.checkErr)
}

// traced is the per-layer run (see tracedPhases). The controller's
// counters are read after the untraced phase, so only the traced
// phase's replans and moves are reported.
func (b *churnBench) traced(cfg runConfig) (*result, error) {
	rec := newRecorder(1 << 16)
	r, err := b.setup()
	if err != nil {
		return nil, err
	}
	var replans, moves int
	t, err := tracedPhases(cfg, rec, 0,
		func(base int64, seconds float64, rec *recorder) loopStats {
			replans, moves = r.o.Replans, r.o.Moves
			return b.phase(r, base, seconds, rec)
		},
		func(int64) (int64, error) { return r.badChecks, r.checkErr })
	if err != nil {
		return nil, err
	}
	ops := float64(t.traced.ops)
	vals := map[string]float64{
		"online.add_ms":          meanMS(rec.all(), named("online.add")),
		"online.remove_ms":       meanMS(rec.all(), named("online.remove")),
		"netsim.rebuild_ms":      meanMS(rec.all(), named("netsim.rebuild")),
		"online.replans_per_kop": float64(r.o.Replans-replans) / ops * 1000,
		"online.moves_per_kop":   float64(r.o.Moves-moves) / ops * 1000,
		"online.rejected_frac":   float64(r.rejected) / ops,
	}
	return tracedResult(cfg, rec, t, vals)
}
