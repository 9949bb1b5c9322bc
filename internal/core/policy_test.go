package core

import (
	"math"
	"testing"

	"progopt/internal/columnar"
	"progopt/internal/costmodel/markov"
	"progopt/internal/costmodel/peo"
	"progopt/internal/exec"
	"progopt/internal/hw/pmu"
	"progopt/internal/race"
	"progopt/internal/tpch"
	"progopt/internal/trace"
)

// fakeFeeder drives the policy without a simulator: a plain counter clock
// that estimation charges and recompiles advance.
type fakeFeeder struct {
	now        uint64
	recompiles int
}

func (f *fakeFeeder) clock() (rel, ts uint64) { return f.now, f.now }
func (f *fakeFeeder) charge(instr int)        { f.now += uint64(instr) }
func (f *fakeFeeder) recompile(bool)          { f.recompiles++; f.now += reorderCostInstr }
func (f *fakeFeeder) revertArgs(cost, prevCost, limit float64) []trace.Arg {
	return []trace.Arg{trace.A("cost", cost), trace.A("limit", limit)}
}

const policyTestTuples = 4096

// testPolicy builds a policy over three 8-byte predicates in plan order
// [0 1 2]. The table is never scanned; only the plan shape matters.
func testPolicy(t *testing.T, micro bool, opt Options) *policy {
	t.Helper()
	tb := columnar.NewTable("t")
	var ops []exec.Op
	for _, name := range []string{"a", "b", "c"} {
		tb.MustAddColumn(columnar.NewInt64(name, make([]int64, policyTestTuples)))
		ops = append(ops, &exec.Predicate{Col: tb.Column(name), Op: exec.LT, I: 1, Label: name})
	}
	p := newPolicy(&exec.Query{Table: tb, Ops: ops}, progEngine(t).CPU().Profile(), micro, opt)
	return &p
}

// countersFor synthesizes the PMU delta of one window executing the
// policy's current order with the given per-position selectivities, from
// the same cost models the estimator inverts.
func countersFor(t *testing.T, p *policy, sels []float64) pmu.Sample {
	t.Helper()
	est, err := peo.Counters(peo.Params{
		N: policyTestTuples, Widths: p.widths, AggWidths: p.aggWidths,
		Geometry: p.geom, Chain: markov.Paper(),
	}, sels)
	if err != nil {
		t.Fatal(err)
	}
	var s pmu.Sample
	s[pmu.BrNotTaken] = uint64(math.Round(est.BNT))
	s[pmu.BrMPTaken] = uint64(math.Round(est.MPTaken))
	s[pmu.BrMPNotTaken] = uint64(math.Round(est.MPNotTaken))
	s[pmu.L3Access] = uint64(math.Round(est.L3))
	s[pmu.BrTaken] = uint64(2*policyTestTuples - math.Round(est.Qualifying))
	return s
}

// feed runs one window of the given per-vector cost through the policy.
func feed(t *testing.T, p *policy, f *fakeFeeder, cost float64, comparable, optimize bool, counters pmu.Sample) bool {
	t.Helper()
	changed, err := p.step(f, window{
		vectors: 1, tuples: policyTestTuples, counters: counters,
		cost: cost, comparable: comparable, optimize: optimize,
	})
	if err != nil {
		t.Fatal(err)
	}
	return changed
}

// Selectivities per current position: descending is the worst order, so
// the estimator proposes the reversal; ascending confirms the order.
var (
	descSels = []float64{0.9, 0.5, 0.1}
	ascSels  = []float64{0.1, 0.5, 0.9}
)

// reordered drives the policy into a pending validation: one optimization
// window whose counters show the current order is the worst.
func reordered(t *testing.T, p *policy, f *fakeFeeder) {
	t.Helper()
	if !feed(t, p, f, 1000, true, true, countersFor(t, p, descSels)) || p.st.Reorders != 1 || !p.pending {
		t.Fatalf("no reorder from the worst order: %+v", p.st)
	}
	if !equalPerm(p.curPerm, []int{2, 1, 0}) {
		t.Fatalf("reordered to %v, want [2 1 0]", p.curPerm)
	}
}

func TestPolicyRevertsAboveTolerance(t *testing.T) {
	tr := trace.New().NewTrack("opt")
	p, f := testPolicy(t, false, Options{Trace: tr}), &fakeFeeder{}
	reordered(t, p, f)
	recompiles := f.recompiles
	if !feed(t, p, f, 1000*(1+2*validationTolerance), true, false, pmu.Sample{}) {
		t.Fatal("a regressed window did not change the plan")
	}
	if p.st.Reverts != 1 || !equalPerm(p.curPerm, []int{0, 1, 2}) || !equalPerm(p.rejected, []int{2, 1, 0}) {
		t.Errorf("revert: reverts %d, order %v, rejected %v", p.st.Reverts, p.curPerm, p.rejected)
	}
	if f.recompiles != recompiles+1 || p.st.ConvergedAtCycles != f.now {
		t.Errorf("revert: %d recompiles, converged at %d (clock %d)", f.recompiles-recompiles, p.st.ConvergedAtCycles, f.now)
	}
	evs := tr.Events()
	if last := evs[len(evs)-1]; last.Name != "revert" || last.Args[1].Key != "cost" {
		t.Errorf("last event %s %v, want a revert carrying the feeder's evidence", last.Name, last.Args)
	}
}

func TestPolicyKeepsOrderWithinToleranceOrOnPartialWindow(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cost       float64
		comparable bool
	}{
		{"within tolerance", 1000 * (1 + validationTolerance/2), true},
		{"partial window", 1e9, false},
	} {
		p, f := testPolicy(t, false, Options{}), &fakeFeeder{}
		reordered(t, p, f)
		if feed(t, p, f, tc.cost, tc.comparable, false, pmu.Sample{}) || p.st.Reverts != 0 {
			t.Errorf("%s: reverted", tc.name)
		}
		if p.pending || !equalPerm(p.curPerm, []int{2, 1, 0}) {
			t.Errorf("%s: pending %v, order %v", tc.name, p.pending, p.curPerm)
		}
	}
}

func TestPolicyValidationDisabled(t *testing.T) {
	p, f := testPolicy(t, false, Options{DisableValidation: true}), &fakeFeeder{}
	reordered(t, p, f)
	feed(t, p, f, 1e9, true, false, pmu.Sample{})
	if p.st.Reverts != 0 {
		t.Error("reverted with validation disabled")
	}
}

func TestPolicyTabuBlocksRejectedOrder(t *testing.T) {
	p, f := testPolicy(t, false, Options{}), &fakeFeeder{}
	reordered(t, p, f)
	feed(t, p, f, 2000, true, false, pmu.Sample{}) // revert to [0 1 2]
	// The same evidence proposes [2 1 0] again: the tabu ignores it.
	if feed(t, p, f, 1000, true, true, countersFor(t, p, descSels)) {
		t.Error("the rejected order was proposed again")
	}
	if p.st.Reorders != 1 || p.st.Optimizations != 2 || p.stable != 1 {
		t.Errorf("reorders %d, optimizations %d, stable %d", p.st.Reorders, p.st.Optimizations, p.stable)
	}
}

func TestPolicyProbe(t *testing.T) {
	p, f := testPolicy(t, false, Options{ExploreEvery: 2}), &fakeFeeder{}
	confirm := func() {
		t.Helper()
		if feed(t, p, f, 1000, true, true, countersFor(t, p, ascSels)) {
			t.Fatalf("confirming window changed the plan to %v", p.curPerm)
		}
	}
	confirm()
	confirm()
	// Two stable cycles: the next optimization point probes the rotation
	// instead of estimating.
	opts := p.st.Optimizations
	if !feed(t, p, f, 1000, true, true, countersFor(t, p, ascSels)) || p.st.Explorations != 1 {
		t.Fatalf("no probe after two stable cycles: %+v", p.st)
	}
	if !equalPerm(p.curPerm, []int{1, 2, 0}) || !p.pending || p.st.Optimizations != opts {
		t.Fatalf("probe: order %v, pending %v, optimizations %d", p.curPerm, p.pending, p.st.Optimizations)
	}
	feed(t, p, f, 2000, true, false, pmu.Sample{}) // the probe regressed
	if !equalPerm(p.curPerm, []int{0, 1, 2}) || !equalPerm(p.rejected, []int{1, 2, 0}) {
		t.Fatalf("probe not reverted: order %v, rejected %v", p.curPerm, p.rejected)
	}
	confirm()
	confirm()
	// The due probe equals the rejected order: the point estimates instead.
	confirm()
	if p.st.Explorations != 1 || p.st.Optimizations != opts+3 {
		t.Errorf("skipped probe: explorations %d, optimizations %d", p.st.Explorations, p.st.Optimizations-opts)
	}
}

func TestPolicyNeverProbesInMicroMode(t *testing.T) {
	p, f := testPolicy(t, true, Options{ExploreEvery: 1}), &fakeFeeder{}
	p.eligible = false // isolate the probe from implementation choice
	for range 6 {
		feed(t, p, f, 1000, true, true, countersFor(t, p, ascSels))
	}
	if p.st.Explorations != 0 || p.st.Optimizations != 6 || p.stable != 6 {
		t.Errorf("micro mode: explorations %d, optimizations %d, stable %d", p.st.Explorations, p.st.Optimizations, p.stable)
	}
}

func TestPolicyBranchFreeResample(t *testing.T) {
	p, f := testPolicy(t, true, Options{}), &fakeFeeder{}
	p.impl = exec.ImplBranchFree
	for point := 1; point <= 2*resampleEvery; point++ {
		feed(t, p, f, 1000, true, false, pmu.Sample{}) // not an optimization point
		changed := feed(t, p, f, 1000, true, true, pmu.Sample{})
		want := exec.ImplBranchFree
		if point%resampleEvery == 0 {
			want = exec.ImplBranching
		}
		if p.impl != want || changed {
			t.Fatalf("point %d: impl %v, changed %v", point, p.impl, changed)
		}
		p.impl = exec.ImplBranchFree
	}
	if p.st.ImplSwitches != 2 || f.recompiles != 2 || p.st.Optimizations != 0 {
		t.Errorf("switches %d, recompiles %d, optimizations %d", p.st.ImplSwitches, f.recompiles, p.st.Optimizations)
	}
	if p.st.BranchFreeVectors != 4*resampleEvery || p.st.BranchingVectors != 0 || p.st.ConvergedAtCycles != 0 {
		t.Errorf("vectors %d/%d, converged at %d", p.st.BranchingVectors, p.st.BranchFreeVectors, p.st.ConvergedAtCycles)
	}
}

// maxWarmProgressiveAllocs pins the allocations of one warm serial
// progressive run of the query below (Q6, 40000 random-order rows from its
// worst order, ReopInterval 5): the count the separate per-driver loops
// allocated before the shared policy.
const maxWarmProgressiveAllocs = 93

func TestWarmSerialProgressiveAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	d := progDataset(t, 40000).ReorderLineitem(tpch.OrderingRandom, 6)
	q, _ := worstOrderQ6(t, d)
	e := progEngine(t)
	if err := e.BindQuery(q); err != nil {
		t.Fatal(err)
	}
	run := func() {
		e.CPU().FlushCaches()
		e.CPU().ResetPredictor()
		if _, _, err := RunProgressive(e, q, Options{ReopInterval: 5}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if got := testing.AllocsPerRun(3, run); got > maxWarmProgressiveAllocs {
		t.Errorf("warm serial progressive run allocates %v times, pinned at most %d", got, maxWarmProgressiveAllocs)
	}
}
