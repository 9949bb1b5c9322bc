package core

import (
	cachemodel "progopt/internal/costmodel/cache"
	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/hw/pmu"
	"progopt/internal/trace"
)

// Options configure the progressive optimization drivers (§4.4, Figure 10).
type Options struct {
	// ReopInterval is the number of vectors between optimization cycles (the
	// paper sweeps 10, 75, 200); the block-granular drivers optimize every
	// ReopInterval vectors per core. Zero disables re-optimization, reducing
	// the driver to the baseline execution pattern.
	ReopInterval int
	// DisableValidation skips the execute-and-compare step after a reorder
	// (ablation: Figure 13c's random data set relies on reverting).
	DisableValidation bool
	// DisablePredictorReset keeps branch-predictor state across reorders
	// (ablation; real JIT recompilation moves branch addresses).
	DisablePredictorReset bool
	// ExploreEvery enables the §4.5 correlation probe in progressive mode
	// (micro-adaptive runs never probe): after this many consecutive
	// optimization cycles that kept the same order, one window is executed
	// under an exploratory rotation of that order. Correlated attributes
	// make the estimator's independence assumption lie; actually running a
	// different PEO measures the truth, and validation keeps the probe order
	// only if it is genuinely faster. Zero disables probing.
	ExploreEvery int
	// Trace, when non-nil, receives the optimizer's decision events (samples,
	// reorders, reverts, exploration probes, implementation switches) with
	// the PMU evidence that triggered them. Recording is a pure observer: it
	// charges no simulated work, so traced and untraced runs are
	// bit-identical.
	Trace *trace.Track
}

const (
	// sampleCostInstr is the instruction cost charged per PMU sample
	// (virtually free on real hardware).
	sampleCostInstr = 50
	// nmEvalCostInstr is charged per Nelder-Mead objective evaluation,
	// accounting for the optimizer's own CPU time.
	nmEvalCostInstr = 80
	// reorderCostInstr is charged per applied plan change on every core
	// running the query: re-chaining pre-compiled primitives,
	// Vectorwise-style.
	reorderCostInstr = 2000
	// validationTolerance is the fractional per-vector cycle regression
	// tolerated before reverting.
	validationTolerance = 0.02
	// resampleEvery spaces the sampling windows while running branch-free:
	// the policy returns to the (counter-observable) branching scan only
	// every resampleEvery-th optimization point, keeping most vectors on the
	// cheaper implementation.
	resampleEvery = 3
)

// Stats reports what an adaptive driver did.
type Stats struct {
	// Vectors executed.
	Vectors int
	// Optimizations is the number of estimation cycles run.
	Optimizations int
	// Reorders is how many produced a changed order.
	Reorders int
	// Reverts is how many reorders validation rolled back.
	Reverts int
	// FinalOrder is the operator permutation (table-space indexes) in effect
	// at the end.
	FinalOrder []int
	// LastEstimate is the most recent selectivity estimate (current-order
	// space), nil before the first optimization.
	LastEstimate []float64
	// EstimatorEvaluations totals Nelder-Mead objective calls.
	EstimatorEvaluations int
	// Explorations counts §4.5 correlation probes issued.
	Explorations int
	// ConvergedAtCycles is the run's cycle clock at the last change the
	// optimizer applied (reorder, revert, exploration, or implementation
	// switch): the cycles spent before the run settled on its final plan.
	// Zero means the initial order was never changed — the signature of a
	// feedback-cache warm start that began at the converged order.
	ConvergedAtCycles uint64
	// Samples is the per-cycle observation series (bounded; see Sample): the
	// PMU evidence and selectivity estimate of every optimization cycle, in
	// order. The trace's optimizer track and the ext-* figures render the
	// same series.
	Samples []Sample
	// Workers is the pool size of a block-granular run and Blocks the
	// number of morsel blocks (optimization epochs) it executed; both are
	// zero for the serial drivers.
	Workers, Blocks int
	// BranchingVectors and BranchFreeVectors count vectors per scan
	// implementation, and ImplSwitches the implementation changes; all
	// three are zero outside micro-adaptive runs.
	BranchingVectors, BranchFreeVectors, ImplSwitches int
}

// feeder supplies the granularity facts of one adaptive run to the policy:
// the serial driver feeds it single vectors on one core, BlockStepper morsel
// blocks spread over several.
type feeder interface {
	// clock returns the run-relative clock (Sample.Cycles and
	// ConvergedAtCycles) and the timestamp of trace events.
	clock() (rel, ts uint64)
	// charge accounts the estimator's own instructions.
	charge(instr int)
	// recompile re-JITs the scan loop on every core running the query.
	recompile(resetPredictor bool)
	// revertArgs renders the evidence of a revert for the trace: the
	// window's per-vector cost, the previous window's, and the limit the
	// former exceeded.
	revertArgs(cost, prevCost, limit float64) []trace.Arg
}

// window is one unit of feedback: a vector or a morsel block.
type window struct {
	// vectors and tuples are the window's size; counters its PMU delta.
	vectors, tuples int
	counters        pmu.Sample
	// cost is the window's cycles per vector. comparable reports whether it
	// may be validated against the previous window's (the serial driver
	// rejects a partial last vector).
	cost       float64
	comparable bool
	// optimize marks an optimization point.
	optimize bool
}

// policy is the progressive optimizer's one decision loop (§4.4, §4.5 and
// micro adaptivity). Each window goes through it in a fixed order: validate
// the last reorder (revert on regression), the correlation probe, sample →
// estimate → reorder by rank, implementation choice, and the branch-free
// resampling countdown. It is pure decision state; the feeder executes the
// query and owns the clocks.
type policy struct {
	base     *exec.Query
	opt      Options
	micro    bool
	eligible bool
	geom     cachemodel.Geometry
	costP    ImplCostParams

	curPerm, prevPerm []int
	// rejected remembers the last order validation reverted: proposing it
	// again would just repeat the measured regression, so the estimator's
	// (and the probe's) output is ignored while it equals this order. Only a
	// revert overwrites it, so a genuinely changed estimate still reorders.
	rejected []int
	curQ     *exec.Query
	// widths caches opWidths(curQ), refreshed when the order changes.
	widths, aggWidths []int

	pending  bool
	prevCost float64
	// stable counts consecutive optimization cycles that confirmed the
	// current order (drives the §4.5 correlation probe).
	stable      int
	impl        exec.ScanImpl
	bfOptPoints int
	// changed records a plan change within the current window.
	changed bool

	est Estimator
	st  Stats
}

func newPolicy(q *exec.Query, prof cpu.Profile, micro bool, opt Options) policy {
	l3 := prof.Hierarchy.L3
	perm := identity(len(q.Ops))
	return policy{
		base:      q,
		opt:       opt,
		micro:     micro,
		eligible:  micro && exec.BranchFreeEligible(q),
		geom:      cachemodel.Geometry{LineSize: l3.LineSize, CapacityLines: l3.Lines()},
		costP:     DefaultImplCostParams(),
		curPerm:   perm,
		prevPerm:  perm,
		curQ:      q,
		widths:    opWidths(q),
		aggWidths: aggColumnWidths(q),
		impl:      exec.ImplBranching,
	}
}

// step feeds one finished window through the policy and reports whether it
// changed the plan (reorder, revert, probe or implementation switch).
func (p *policy) step(f feeder, w window) (bool, error) {
	p.changed = false
	p.st.Vectors += w.vectors
	if p.micro && p.impl == exec.ImplBranchFree {
		p.st.BranchFreeVectors += w.vectors
	} else if p.micro {
		p.st.BranchingVectors += w.vectors
	}

	if p.pending && !p.opt.DisableValidation {
		p.pending = false
		if limit := p.prevCost * (1 + validationTolerance); w.comparable && w.cost > limit {
			// Deteriorated: re-establish the previous order and remember
			// the rejected one so it is not proposed again.
			p.rejected = p.curPerm
			if err := p.setOrder(f, p.prevPerm); err != nil {
				return false, err
			}
			p.st.Reverts++
			p.markChanged(f)
			if p.opt.Trace != nil {
				p.decide(f, "revert", w.counters, append([]trace.Arg{trace.A("to", p.curPerm)},
					f.revertArgs(w.cost, p.prevCost, limit)...)...)
			}
		}
	}

	var err error
	if w.optimize {
		switch probe := p.probe(); {
		case probe != nil:
			// §4.5 correlation probe: the estimator has confirmed the same
			// order ExploreEvery times in a row; its independence
			// assumption might be hiding a better order. Run the next
			// window under a rotation of the current order and let
			// validation decide.
			p.stable = 0
			p.st.Explorations++
			if err = p.reorder(f, probe); err == nil {
				p.decide(f, "explore", w.counters, trace.A("from", p.prevPerm), trace.A("to", p.curPerm))
			}
		case p.impl == exec.ImplBranching:
			// Estimation requires the branching scan's counters
			// (branch-free windows carry no per-predicate branch signal).
			err = p.optimize(f, w)
		default:
			p.resample(f, w)
		}
	}
	p.prevCost = w.cost
	return p.changed, err
}

// probe returns the §4.5 exploration order when one is due: progressive
// mode only, after ExploreEvery stable cycles, and never the order
// validation last rejected (that cycle falls through to plain estimation).
func (p *policy) probe() []int {
	if p.micro || p.opt.ExploreEvery <= 0 || p.stable < p.opt.ExploreEvery {
		return nil
	}
	if probe := rotate(p.curPerm); !equalPerm(probe, p.rejected) {
		return probe
	}
	return nil
}

// optimize samples the window's counters, estimates selectivities, reorders
// by ascending rank and, in micro mode, chooses the scan implementation.
func (p *policy) optimize(f feeder, w window) error {
	f.charge(sampleCostInstr)
	est, err := p.est.Estimate(SampleFromPMU(w.counters, w.tuples), EstimatorConfig{
		Widths:    p.widths,
		AggWidths: p.aggWidths,
		Geometry:  p.geom,
	})
	if err != nil {
		return err
	}
	p.st.Optimizations++
	p.st.EstimatorEvaluations += est.NMEvaluations
	p.st.LastEstimate = est.Sels
	f.charge(est.NMEvaluations * nmEvalCostInstr)
	rel, ts := f.clock()
	smp := Sample{Cycles: rel, Tuples: w.tuples, Counters: w.counters.Project(paperGroup), Sels: est.Sels}
	p.st.addSample(smp)
	traceSample(p.opt.Trace, ts, smp)

	order := RankOrder(LoadWeights(p.curQ), est.Sels)
	if next := compose(p.curPerm, order); !equalPerm(next, p.curPerm) && !equalPerm(next, p.rejected) {
		p.stable = 0
		p.st.Reorders++
		if err := p.reorder(f, next); err != nil {
			return err
		}
		p.decide(f, "reorder", smp.Counters, trace.A("from", p.prevPerm), trace.A("to", p.curPerm),
			trace.A("est_sels", est.Sels))
	} else {
		p.stable++
	}
	if !p.eligible {
		return nil
	}
	ordered := make([]float64, len(est.Sels))
	for i, o := range order {
		ordered[i] = est.Sels[o]
	}
	if next := ChooseImpl(ordered, p.costP); next != p.impl {
		p.st.ImplSwitches++
		p.impl = next
		f.recompile(!p.opt.DisablePredictorReset)
		p.markChanged(f)
		p.decide(f, "impl-switch", smp.Counters, trace.A("impl", implName(p.impl)), trace.A("est_sels", ordered))
	}
	return nil
}

// resample counts a branch-free optimization point and returns to the
// branching scan for one sampling window every resampleEvery points, so
// selectivity drift stays observable without squandering the branch-free
// savings on sampling.
func (p *policy) resample(f feeder, w window) {
	if p.bfOptPoints++; p.bfOptPoints < resampleEvery {
		return
	}
	p.bfOptPoints = 0
	p.st.ImplSwitches++
	p.impl = exec.ImplBranching
	f.recompile(!p.opt.DisablePredictorReset)
	p.decide(f, "impl-switch", w.counters, trace.A("impl", implName(p.impl)), trace.A("resample", true))
}

// reorder moves to a proposed order (estimated or probed) and arms its
// validation against the next window.
func (p *policy) reorder(f feeder, perm []int) error {
	p.prevPerm = p.curPerm
	if err := p.setOrder(f, perm); err != nil {
		return err
	}
	p.pending = true
	p.markChanged(f)
	return nil
}

// setOrder switches the plan to perm (table-space indexes) and recompiles.
func (p *policy) setOrder(f feeder, perm []int) error {
	q, err := p.base.WithOrder(perm)
	if err != nil {
		return err
	}
	p.curPerm, p.curQ, p.widths = perm, q, opWidths(q)
	f.recompile(!p.opt.DisablePredictorReset)
	return nil
}

func (p *policy) markChanged(f feeder) {
	p.changed = true
	p.st.ConvergedAtCycles, _ = f.clock()
}

// decide emits a plan-change event at the feeder's trace clock.
func (p *policy) decide(f feeder, name string, evidence pmu.Sample, args ...trace.Arg) {
	if p.opt.Trace != nil {
		_, ts := f.clock()
		traceDecision(p.opt.Trace, name, ts, evidence, args...)
	}
}

// traceFinal emits the plan-final event at ts. withImpl adds the scan
// implementation, which every driver but the serial progressive one
// reports.
func (p *policy) traceFinal(ts uint64, withImpl bool) {
	if p.opt.Trace == nil {
		return
	}
	args := []trace.Arg{trace.A("order", p.curPerm), trace.A("reorders", p.st.Reorders)}
	if withImpl {
		args = append(args, trace.A("impl", implName(p.impl)))
	}
	p.opt.Trace.Instant("plan-final", ts, append(args, trace.A("converged_at", p.st.ConvergedAtCycles))...)
}

// stats returns the telemetry with the order currently in effect. The
// policy never mutates an order in place, so FinalOrder may share storage
// with it.
func (p *policy) stats() Stats {
	st := p.st
	st.FinalOrder = p.curPerm
	return st
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// rotate returns the §4.5 exploration rotation of a permutation: the leading
// operator moves to the back.
func rotate(p []int) []int {
	out := append([]int(nil), p[1:]...)
	return append(out, p[0])
}

// compose maps a reorder expressed in current-order positions into
// table-space indexes: newPerm[i] = curPerm[order[i]].
func compose(curPerm, order []int) []int {
	out := make([]int, len(order))
	for i, o := range order {
		out[i] = curPerm[o]
	}
	return out
}

func equalPerm(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func opWidths(q *exec.Query) []int {
	w := make([]int, len(q.Ops))
	for i, op := range q.Ops {
		w[i] = op.Width()
	}
	return w
}

func aggColumnWidths(q *exec.Query) []int {
	if q.Agg == nil {
		return nil
	}
	w := make([]int, len(q.Agg.Cols))
	for i, col := range q.Agg.Cols {
		w[i] = col.Width()
	}
	return w
}
