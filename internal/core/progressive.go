package core

import (
	"fmt"

	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/hw/pmu"
	"progopt/internal/trace"
)

// RunProgressive executes the query vector-at-a-time with progressive
// re-optimization: every ReopInterval vectors it samples the PMU delta of
// the last vector, estimates per-operator selectivities, reorders operators
// by ascending rank (per-row load weight over estimated drop rate — plain
// ascending selectivity for all-predicate plans; see RankOrder), then
// validates the new order against the next vector and reverts on regression
// (§4.4). With Options.ExploreEvery set it also issues the §4.5 correlation
// probe, which only progressive mode runs.
//
// The returned result's counters and cycles include the sampling,
// estimation, and reordering overhead, charged to the simulated CPU.
func RunProgressive(e *exec.Engine, q *exec.Query, opt Options) (exec.Result, Stats, error) {
	return runSerialAdaptive(e, q, opt, false)
}

// RunMicroAdaptive is RunProgressive extended with per-cycle implementation
// choice: after each selectivity estimation it also decides whether the next
// vectors run the branching or the branch-free scan. Queries containing
// non-predicate operators always run branching; the correlation probe never
// runs.
func RunMicroAdaptive(e *exec.Engine, q *exec.Query, opt Options) (exec.Result, Stats, error) {
	return runSerialAdaptive(e, q, opt, true)
}

// vectorFeeder feeds the policy one vector at a time on a single core: the
// policy's clocks are the core's own, and its work is charged to that core.
type vectorFeeder struct {
	c     *cpu.CPU
	start uint64
}

func (f *vectorFeeder) clock() (rel, ts uint64) {
	now := f.c.Cycles()
	return now - f.start, now
}

func (f *vectorFeeder) charge(instr int) { f.c.Exec(instr) }

func (f *vectorFeeder) recompile(resetPredictor bool) { recompileCore(f.c, resetPredictor) }

func (f *vectorFeeder) revertArgs(cost, _, limit float64) []trace.Arg {
	return []trace.Arg{trace.A("vec_cycles", uint64(cost)), trace.A("limit", limit)}
}

// runSerialAdaptive is the serial vector loop of the progressive and
// micro-adaptive drivers: every vector is one policy window, compared only
// when it is full, and every ReopInterval-th vector but the last is an
// optimization point.
func runSerialAdaptive(e *exec.Engine, q *exec.Query, opt Options, micro bool) (exec.Result, Stats, error) {
	if err := q.Validate(); err != nil {
		return exec.Result{}, Stats{}, err
	}
	c := e.CPU()
	p := newPolicy(q, c.Profile(), micro, opt)
	f := &vectorFeeder{c: c, start: c.Cycles()}
	start := c.Sample()
	var out exec.Result

	n := q.Table.NumRows()
	vs := e.VectorSize()
	numVectors := (n + vs - 1) / vs
	for lo := 0; lo < n; lo += vs {
		hi := min(lo+vs, n)
		s0, c0 := c.Sample(), c.Cycles()
		vr, err := e.RunVectorImpl(p.curQ, lo, hi, p.impl)
		if err != nil {
			return exec.Result{}, Stats{}, err
		}
		out.Qualifying += vr.Qualifying
		out.Sum += vr.Sum
		out.Vectors++
		if _, err := p.step(f, window{
			vectors:    1,
			tuples:     hi - lo,
			counters:   c.Sample().Sub(s0),
			cost:       float64(c.Cycles() - c0),
			comparable: hi-lo == vs,
			optimize:   opt.ReopInterval > 0 && out.Vectors%opt.ReopInterval == 0 && out.Vectors < numVectors,
		}); err != nil {
			return exec.Result{}, Stats{}, err
		}
	}

	out.Cycles = c.Cycles() - f.start
	out.Millis = c.MillisOf(out.Cycles)
	out.Counters = c.Sample().Sub(start)
	p.traceFinal(c.Cycles(), micro)
	return out, p.stats(), nil
}

// recompileCore re-JITs the scan loop on one core: new branch addresses
// (predictor reset) and re-chained primitives.
func recompileCore(c *cpu.CPU, resetPredictor bool) {
	if resetPredictor {
		c.ResetPredictor()
	}
	c.Exec(reorderCostInstr)
}

// VerifyIdentity sanity-checks the §2.2.1 branch identity on a PMU delta:
// qualifying == 2n - branchesTaken. It returns an error when the engine and
// driver disagree, which would indicate counter corruption.
func VerifyIdentity(delta pmu.Sample, n int, qualifying int64) error {
	got := 2*int64(n) - int64(delta.Get(pmu.BrTaken))
	if got != qualifying {
		return fmt.Errorf("core: branch identity violated: 2n-BT=%d, qualifying=%d", got, qualifying)
	}
	return nil
}
