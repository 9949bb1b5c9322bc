package main

import (
	"fmt"
	"math"
	"reflect"

	"progopt"
)

// columns are the lineitem columns of an independently generated copy of the
// data set, decoded from its stored image, for plain-Go evaluation.
type columns struct {
	n    int
	ints map[string][]int64
	flts map[string][]float64
}

// loadColumns generates the workload's data set a second time (generation is
// deterministic in its seed) and decodes it, so the reference never touches
// the measured data set or engine.
func loadColumns(w *workload, seed int64) (*columns, error) {
	eng, err := progopt.New(progopt.Config{})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	ds, err := eng.GenerateTPCH(w.rows, seed, w.ordering)
	if err != nil {
		return nil, err
	}
	enc, err := ds.EncodedLineitem(blockRows)
	if err != nil {
		return nil, err
	}
	tab, err := enc.Decode()
	if err != nil {
		return nil, err
	}
	c := &columns{n: tab.NumRows(), ints: make(map[string][]int64), flts: make(map[string][]float64)}
	for _, name := range []string{"l_shipdate", "l_quantity", "l_discount", "l_tax", "l_extendedprice"} {
		col := tab.Column(name)
		if col == nil {
			return nil, fmt.Errorf("reference: lineitem has no column %q", name)
		}
		switch {
		case col.I64() != nil:
			c.ints[name] = col.I64()
		case col.I32() != nil:
			v := make([]int64, col.Len())
			for i, x := range col.I32() {
				v[i] = int64(x)
			}
			c.ints[name] = v
		default:
			c.flts[name] = col.F64()
		}
	}
	return c, nil
}

func cmp[T int64 | float64](op progopt.Cmp, v, bound T) bool {
	switch op {
	case progopt.CmpLE:
		return v <= bound
	case progopt.CmpLT:
		return v < bound
	case progopt.CmpGE:
		return v >= bound
	case progopt.CmpGT:
		return v > bound
	default:
		return v == bound
	}
}

// pass reports whether row i satisfies f.
func (c *columns) pass(f filter, i int) bool {
	if f.flt {
		return cmp(f.op, c.flts[f.col][i], f.f)
	}
	return cmp(f.op, c.ints[f.col][i], f.i)
}

// selectivity is the share of rows satisfying f alone.
func (c *columns) selectivity(f filter) float64 {
	n := 0
	for i := 0; i < c.n; i++ {
		if c.pass(f, i) {
			n++
		}
	}
	return ratio(float64(n), float64(c.n))
}

// eval answers a lineitem-only scan template: the qualifying count and
// sum(l_extendedprice * l_discount).
func (c *columns) eval(t *template) answer {
	price, disc := c.flts["l_extendedprice"], c.flts["l_discount"]
	var a answer
rows:
	for i := 0; i < c.n; i++ {
		for _, f := range t.filters {
			if !c.pass(f, i) {
				continue rows
			}
		}
		a.Qualifying++
		a.Sum += price[i] * disc[i]
	}
	return a
}

// answer is a query's output.
type answer struct {
	Qualifying int64
	Sum        float64
	Groups     []progopt.GroupRow
	Rows       []progopt.OrderedRow
}

// refAnswer is a reference output. A plain-Go sum adds in another order than
// the engine, so it is compared within sumTolerance; engine references are
// bit-identical by the engine's own contract and compared exactly.
type refAnswer struct {
	answer
	exact bool
}

const sumTolerance = 1e-9

func (r refAnswer) matches(got answer) bool {
	if r.exact {
		return reflect.DeepEqual(r.answer, got)
	}
	scale := math.Max(1, math.Abs(r.Sum))
	return got.Qualifying == r.Qualifying && math.Abs(got.Sum-r.Sum) <= sumTolerance*scale &&
		got.Groups == nil && got.Rows == nil
}

// references are computed before anything is timed.
type references struct {
	answers map[string]refAnswer // template key -> answer
	// fixedCycles holds, per template and initial order, the cycles of a
	// ModeFixed Exec at the workload's configuration: the baseline of
	// adaptive_speedup.
	fixedCycles map[string]uint64
	// drift is hw.cold_drift_frac: the mean relative cycle change between two
	// consecutive fixed Execs of one compiled query on one engine.
	drift float64
	// hz is the simulated clock rate, cycles per second.
	hz float64
}

const driftProbes = 4

// buildReferences answers every distinct template: lineitem-only scans by
// plain-Go evaluation, joins, grouped and Top-K plans by a fresh one-core
// engine in ModeFixed. It also prices each adaptive query's plan in fixed
// mode on one engine of the workload's own configuration.
func buildReferences(w *workload, ds *progopt.Dataset, cols *columns, qs []query) (*references, error) {
	r := &references{answers: make(map[string]refAnswer), fixedCycles: make(map[string]uint64)}
	for _, q := range qs {
		if _, ok := r.answers[q.t.key]; ok {
			continue
		}
		if q.t.kind == kindScan {
			r.answers[q.t.key] = refAnswer{answer: cols.eval(q.t)}
			continue
		}
		res, err := freshFixed(w, ds, q.t)
		if err != nil {
			return nil, err
		}
		r.answers[q.t.key] = refAnswer{answer: answerOf(res), exact: true}
	}

	eng, err := progopt.New(w.cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	var drifts []float64
	for _, q := range qs {
		if !q.adaptive() {
			continue
		}
		if _, ok := r.fixedCycles[q.orderKey()]; ok {
			continue
		}
		cq, err := compile(eng, ds, q)
		if err != nil {
			return nil, err
		}
		res, err := eng.Exec(cq, progopt.ExecOptions{Mode: progopt.ModeFixed})
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.t.key, err)
		}
		r.fixedCycles[q.orderKey()] = res.Cycles
		if r.hz == 0 {
			r.hz = float64(res.Cycles) / res.Millis * 1e3
		}
		if len(drifts) < driftProbes {
			again, err := eng.Exec(cq, progopt.ExecOptions{Mode: progopt.ModeFixed})
			if err != nil {
				return nil, err
			}
			drifts = append(drifts, math.Abs(float64(again.Cycles)-float64(res.Cycles))/float64(res.Cycles))
		}
	}
	for _, d := range drifts {
		r.drift += d / float64(len(drifts))
	}
	return r, nil
}

// freshFixed runs a template on a new one-core in-RAM engine in ModeFixed,
// with the workload's vector size: a sum is bit-identical across worker
// counts and modes, not across vector sizes.
func freshFixed(w *workload, ds *progopt.Dataset, t *template) (progopt.ExecResult, error) {
	eng, err := progopt.New(progopt.Config{Workers: 1, VectorSize: w.cfg.VectorSize})
	if err != nil {
		return progopt.ExecResult{}, err
	}
	defer eng.Close()
	cq, err := eng.Compile(ds, t.plan)
	if err != nil {
		return progopt.ExecResult{}, fmt.Errorf("reference %s: %w", t.key, err)
	}
	res, err := eng.Exec(cq, progopt.ExecOptions{Mode: progopt.ModeFixed})
	if err != nil {
		return progopt.ExecResult{}, fmt.Errorf("reference %s: %w", t.key, err)
	}
	return res, nil
}

// compile compiles a query's plan and applies its initial order.
func compile(eng *progopt.Engine, ds *progopt.Dataset, q query) (*progopt.Query, error) {
	cq, err := eng.Compile(ds, q.t.plan)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", q.t.key, err)
	}
	if q.order != nil {
		if cq, err = cq.WithOrder(q.order); err != nil {
			return nil, fmt.Errorf("order %s %v: %w", q.t.key, q.order, err)
		}
	}
	return cq, nil
}

func answerOf(r progopt.ExecResult) answer {
	return answer{Qualifying: r.Qualifying, Sum: r.Sum, Groups: r.Groups, Rows: r.Rows}
}
