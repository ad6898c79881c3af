package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"tdmd"
)

const (
	// lambda is the traffic-changing ratio of every workload.
	lambda = 0.5
	// topologySeed fixes each workload's network. The run's seed picks
	// the traffic on it: with the topology fixed, different seeds give
	// inputs of the same size and shape, so runs on different seeds are
	// comparable.
	topologySeed = 7
)

// flowPool holds a seeded pool of flows on one topology, each also
// pre-rendered as its JSON object, so request bodies are spliced from
// bytes instead of marshalled while clocks run.
type flowPool struct {
	g     *tdmd.Graph
	flows []tdmd.Flow
	json  [][]byte // {"rate":R,"path":[...]} per flow
	seed  int64
	mult  int64 // odd multiplier: body i starts at pool index i·mult+off
	off   int64
}

// newFlowPool generates size flows (a power of two) from seed on the
// random connected graph of n vertices, toward three hub destinations.
func newFlowPool(n, size int, seed int64) (*flowPool, error) {
	if size&(size-1) != 0 {
		return nil, fmt.Errorf("flow pool size %d is not a power of two", size)
	}
	g := tdmd.GeneralRandom(n, 0.5, topologySeed)
	flows := tdmd.GeneralFlows(g, []tdmd.NodeID{0, 1, 2},
		tdmd.GenConfig{Density: 1e12, Seed: seed, MaxFlows: size})
	if len(flows) != size {
		return nil, fmt.Errorf("generated %d flows, want %d", len(flows), size)
	}
	p := &flowPool{
		g:     g,
		flows: flows,
		json:  make([][]byte, size),
		seed:  seed,
		mult:  int64(splitmix(seed, -1)%uint64(size/2))*2 + 1,
		off:   int64(splitmix(seed, -2) % uint64(size)),
	}
	for i, f := range flows {
		b := append([]byte(`{"rate":`), strconv.Itoa(f.Rate)...)
		b = append(b, `,"path":[`...)
		for j, v := range f.Path {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		p.json[i] = append(b, "]}"...)
	}
	return p, nil
}

// pick returns the pool indices of body i: count entries from a
// seeded start with an odd stride. Start and stride are a bijection of
// i for i < size²/2, so every body index names a distinct flow list.
func (p *flowPool) pick(i int64, count int, dst []int) []int {
	size := int64(len(p.flows))
	start := (i*p.mult + p.off) % size
	stride := 2*((i/size)%(size/2)) + 1
	dst = dst[:0]
	for j := int64(0); j < int64(count); j++ {
		dst = append(dst, int((start+j*stride)%size))
	}
	return dst
}

// problem builds the benchmark's own copy of the problem a body
// describes, used to re-score returned plans.
func (p *flowPool) problem(idx []int) (*tdmd.Problem, error) {
	flows := make([]tdmd.Flow, len(idx))
	for j, k := range idx {
		flows[j] = tdmd.Flow{ID: j, Rate: p.flows[k].Rate, Path: p.flows[k].Path}
	}
	return tdmd.NewProblem(p.g, flows, lambda)
}

// topologyJSON renders the "nodes" and "edges" members shared by the
// spec document and the stream header.
func (p *flowPool) topologyJSON() ([]byte, error) {
	names := []string{}
	for _, v := range p.g.Nodes() {
		names = append(names, p.g.Name(v))
	}
	pairs := [][2]int{}
	for _, e := range p.g.Edges() {
		pairs = append(pairs, [2]int{int(e.From), int(e.To)})
	}
	nodes, err := json.Marshal(names)
	if err != nil {
		return nil, err
	}
	edges, err := json.Marshal(pairs)
	if err != nil {
		return nil, err
	}
	out := append([]byte(`"nodes":`), nodes...)
	out = append(out, `,"edges":`...)
	return append(out, edges...), nil
}

// verifyPlan re-scores a returned plan on the benchmark's own copy of
// the problem made of pool flows idx: the bandwidth and raw demand
// must match exactly and the plan must be feasible, uninterrupted and
// (for k > 0) within budget.
func verifyPlan(pool *flowPool, idx []int, res solveResponse, k int) error {
	p, err := pool.problem(idx)
	if err != nil {
		return err
	}
	plan := tdmd.NewPlan()
	for _, v := range res.Plan {
		plan.Add(tdmd.NodeID(v))
	}
	ev := p.Evaluate(plan)
	switch {
	case math.Float64bits(ev.Bandwidth) != math.Float64bits(res.Bandwidth):
		return fmt.Errorf("returned bandwidth %v, re-scored %v", res.Bandwidth, ev.Bandwidth)
	case math.Float64bits(p.Instance().RawDemand()) != math.Float64bits(res.RawDemand):
		return fmt.Errorf("returned raw demand %v, re-scored %v", res.RawDemand, p.Instance().RawDemand())
	case !ev.Feasible || !res.Feasible:
		return fmt.Errorf("plan %v infeasible", res.Plan)
	case plan.Size() != len(res.Plan):
		return fmt.Errorf("plan %v repeats a vertex", res.Plan)
	case k > 0 && len(res.Plan) > k:
		return fmt.Errorf("plan %v exceeds k=%d", res.Plan, k)
	case res.Interrupted:
		return fmt.Errorf("solve was interrupted")
	}
	return nil
}
