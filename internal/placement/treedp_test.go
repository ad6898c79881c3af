package placement

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
	"tdmd/internal/paperfix"
	"tdmd/internal/topology"
	"tdmd/internal/traffic"
)

func fig5Instance(t *testing.T) (*netsim.Instance, *graph.Tree) {
	t.Helper()
	g, tree, flows, lambda := paperfix.Fig5()
	return netsim.MustNew(g, flows, lambda), tree
}

// Fig. 6 golden values, confirmed by the paper's prose: F(v1, k) for
// k = 1..4 is 24, 16.5, 13.5, 12; F(v2, 1) = 3; F(v2, 2) = 1.5;
// F(v3, 2) = 6; F(v6, 1) = 6; F(v6, 2) = 3.
func TestFig6FullServedValues(t *testing.T) {
	in, tree := fig5Instance(t)
	F, _, err := TreeDPTables(context.Background(), in, tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantRoot := []float64{math.Inf(1), 24, 16.5, 13.5, 12}
	got := F[paperfix.V(1)]
	for k := 0; k <= 4; k++ {
		if got[k] != wantRoot[k] {
			t.Fatalf("F(v1, %d) = %v, want %v", k, got[k], wantRoot[k])
		}
	}
	cases := []struct {
		vertex int
		k      int
		want   float64
	}{
		{2, 1, 3}, {2, 2, 1.5}, {3, 2, 6}, {6, 1, 6}, {6, 2, 3},
	}
	for _, c := range cases {
		row := F[paperfix.V(c.vertex)]
		if c.k >= len(row) {
			t.Fatalf("F(v%d) has no k=%d entry (len %d)", c.vertex, c.k, len(row))
		}
		if row[c.k] != c.want {
			t.Fatalf("F(v%d, %d) = %v, want %v", c.vertex, c.k, row[c.k], c.want)
		}
	}
}

// Fig. 7(a) golden values for P(v1, k, b), restricted to the cells we
// verified arithmetically from the model (DESIGN.md documents that
// three printed cells of the paper's table — (k=1,b=6), (k=2,b=5) and
// (k=3,b=6) — are inconsistent with any uniform reading of the
// recurrence, so they are asserted at our derived values instead).
func TestFig7PartialServedRootTable(t *testing.T) {
	in, tree := fig5Instance(t)
	_, P, err := TreeDPTables(context.Background(), in, tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	inf := math.Inf(1)
	want := [][]float64{
		// b:  0     1     2     3     4     5     6     7     8     9
		{24, inf, inf, inf, inf, inf, inf, inf, inf, inf},   // k=0
		{inf, 22.5, 22, 22.5, inf, 16.5, 18, inf, inf, 24},  // k=1 (paper prints ∞ at b=6; a box on v6 serves f2+f3 for 18)
		{inf, inf, 21.5, 20.5, 21, inf, 15, 14.5, 15, 16.5}, // k=2 (paper prints 16.5 at b=5; no two boxes can process exactly rate 5)
		{inf, inf, inf, 21, 19.5, inf, 15, 14, 13, 13.5},    // k=3 (paper prints ∞ at b=3 and b=6; boxes on v4+v5 leave v2 idle for 21, and v7+v8 leave v6 idle for 15)
	}
	tab := P[paperfix.V(1)]
	for k := 0; k < len(want); k++ {
		for b := 0; b <= 9; b++ {
			if got := tab[k][b]; got != want[k][b] {
				t.Fatalf("P(v1, %d, %d) = %v, want %v", k, b, got, want[k][b])
			}
		}
	}
	// k=4 fully-served entry.
	if tab[4][9] != 12 {
		t.Fatalf("P(v1, 4, 9) = %v, want 12", tab[4][9])
	}
}

// Fig. 7(d)-(h): leaf boundary tables. P(leaf, 0, 0) = 0,
// P(leaf, 1, S) = 0, everything else ∞.
func TestFig7LeafTables(t *testing.T) {
	in, tree := fig5Instance(t)
	_, P, err := TreeDPTables(context.Background(), in, tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	leaves := map[int]int{4: 2, 5: 1, 7: 5, 8: 1} // paper vertex -> S
	for vtx, s := range leaves {
		tab := P[paperfix.V(vtx)]
		if len(tab) != 2 {
			t.Fatalf("leaf v%d has %d k-rows, want 2", vtx, len(tab))
		}
		for k := 0; k <= 1; k++ {
			for b := 0; b <= s; b++ {
				want := math.Inf(1)
				if (k == 0 && b == 0) || (k == 1 && b == s) {
					want = 0
				}
				if got := tab[k][b]; got != want {
					t.Fatalf("P(v%d, %d, %d) = %v, want %v", vtx, k, b, got, want)
				}
			}
		}
	}
}

// Paper: the optimal deployment for k=3 is {v2, v7, v8}; for k=2 it is
// {v1, v7} or {v2, v6} (both 16.5).
func TestTreeDPFig5Plans(t *testing.T) {
	in, tree := fig5Instance(t)
	r3, err := TreeDP(context.Background(), in, tree, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Bandwidth != 13.5 || !r3.Feasible {
		t.Fatalf("k=3: bandwidth %v feasible %v", r3.Bandwidth, r3.Feasible)
	}
	if !planEquals(r3.Plan, paperfix.V(2), paperfix.V(7), paperfix.V(8)) {
		t.Fatalf("k=3 plan = %v, want {v2, v7, v8}", r3.Plan)
	}
	r2, err := TreeDP(context.Background(), in, tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Bandwidth != 16.5 || !r2.Feasible {
		t.Fatalf("k=2: bandwidth %v feasible %v", r2.Bandwidth, r2.Feasible)
	}
	okPlan := planEquals(r2.Plan, paperfix.V(1), paperfix.V(7)) ||
		planEquals(r2.Plan, paperfix.V(2), paperfix.V(6))
	if !okPlan {
		t.Fatalf("k=2 plan = %v, want {v1, v7} or {v2, v6}", r2.Plan)
	}
	r1, err := TreeDP(context.Background(), in, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Bandwidth != 24 || !planEquals(r1.Plan, paperfix.V(1)) {
		t.Fatalf("k=1: plan %v bandwidth %v, want {v1} at 24", r1.Plan, r1.Bandwidth)
	}
	r4, err := TreeDP(context.Background(), in, tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Bandwidth != 12 {
		t.Fatalf("k=4 bandwidth = %v, want 12", r4.Bandwidth)
	}
	if !planEquals(r4.Plan, paperfix.V(4), paperfix.V(5), paperfix.V(7), paperfix.V(8)) {
		t.Fatalf("k=4 plan = %v, want all sources", r4.Plan)
	}
}

// With a budget beyond the useful maximum the DP must not get worse.
func TestTreeDPBudgetBeyondLeaves(t *testing.T) {
	in, tree := fig5Instance(t)
	r, err := TreeDP(context.Background(), in, tree, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bandwidth != 12 {
		t.Fatalf("k=8 bandwidth = %v, want 12", r.Bandwidth)
	}
}

func TestTreeDPRejectsNonTreeWorkload(t *testing.T) {
	g, tree, flows, lambda := paperfix.Fig5()
	// Point one flow at a non-root destination.
	flows[0].Path = graph.Path{paperfix.V(4), paperfix.V(2)}
	in := netsim.MustNew(g, flows, lambda)
	if _, err := TreeDP(context.Background(), in, tree, 3); err == nil {
		t.Fatal("non-root destination accepted")
	}
}

// A single-vertex tree with no flows solves to an empty network.
func TestTreeDPSingleVertex(t *testing.T) {
	g := graph.New()
	g.AddNode("r")
	tree, err := graph.NewTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := netsim.MustNew(g, nil, 0.5)
	r, err := TreeDP(context.Background(), in, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bandwidth != 0 {
		t.Fatalf("bandwidth = %v", r.Bandwidth)
	}
}

func TestTreeDPRejectsZeroBudget(t *testing.T) {
	in, tree := fig5Instance(t)
	if _, err := TreeDP(context.Background(), in, tree, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// randomTreeInstance builds a random tree workload with integral rates.
func randomTreeInstance(rng *rand.Rand, n int) (*netsim.Instance, *graph.Tree) {
	g := topology.RandomTree(n, 0, rng.Int63())
	tree, err := graph.NewTree(g, 0)
	if err != nil {
		panic(err)
	}
	flows := traffic.TreeFlows(tree, traffic.GenConfig{
		Density:  0.4,
		Dist:     traffic.Uniform{Lo: 1, Hi: 6},
		Seed:     rng.Int63(),
		MaxFlows: 12,
	})
	lambda := float64(rng.Intn(10)) / 10
	return netsim.MustNew(g, flows, lambda), tree
}

// The central optimality property (Theorem 4): on random small trees,
// TreeDP matches the exhaustive optimum exactly.
func TestTreeDPOptimalOnRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(9)
		in, tree := randomTreeInstance(rng, n)
		if in.NumFlows() == 0 {
			continue
		}
		for k := 1; k <= 4; k++ {
			got, err := TreeDP(context.Background(), in, tree, k)
			if err != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, err)
			}
			opt, err := Exhaustive(context.Background(), in, k)
			if err != nil {
				t.Fatalf("trial %d k=%d: exhaustive: %v", trial, k, err)
			}
			if math.Abs(got.Bandwidth-opt.Bandwidth) > 1e-9 {
				t.Fatalf("trial %d k=%d: DP %v (plan %v) != optimum %v (plan %v)",
					trial, k, got.Bandwidth, got.Plan, opt.Bandwidth, opt.Plan)
			}
			if !got.Feasible || got.Plan.Size() > k {
				t.Fatalf("trial %d k=%d: invalid DP result %+v", trial, k, got)
			}
			// The traced plan must reproduce the DP's claimed value.
			if rb := in.TotalBandwidth(got.Plan); math.Abs(rb-got.Bandwidth) > 1e-9 {
				t.Fatalf("trial %d k=%d: traced plan scores %v, DP claimed %v", trial, k, rb, got.Bandwidth)
			}
		}
	}
}

// DP bandwidth is non-increasing in the budget.
func TestTreeDPMonotoneInBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 10; trial++ {
		in, tree := randomTreeInstance(rng, 4+rng.Intn(12))
		if in.NumFlows() == 0 {
			continue
		}
		prev := math.Inf(1)
		for k := 1; k <= 6; k++ {
			r, err := TreeDP(context.Background(), in, tree, k)
			if err != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, err)
			}
			if r.Bandwidth > prev+1e-9 {
				t.Fatalf("trial %d: bandwidth rose from %v to %v at k=%d", trial, prev, r.Bandwidth, k)
			}
			prev = r.Bandwidth
		}
	}
}

// With budget >= number of sources, the DP reaches the absolute
// minimum λ·Σ r|p| (Lemma 1).
func TestTreeDPReachesLambdaBound(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 10; trial++ {
		in, tree := randomTreeInstance(rng, 4+rng.Intn(10))
		if in.NumFlows() == 0 {
			continue
		}
		sources := map[graph.NodeID]bool{}
		for _, f := range in.Flows() {
			sources[f.Src()] = true
		}
		r, err := TreeDP(context.Background(), in, tree, len(sources))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := in.Lambda * in.RawDemand()
		if math.Abs(r.Bandwidth-want) > 1e-9 {
			t.Fatalf("trial %d: bandwidth %v, λ bound %v", trial, r.Bandwidth, want)
		}
	}
}
