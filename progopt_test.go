package progopt

import (
	"math"
	"testing"

	"progopt/internal/tpch"
)

func testEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Config{VectorSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// q6Plan is TPC-H Query 6 (five reorderable predicates plus the revenue
// sum) as a plan; TestBuildQ6MatchesInternalOracle pins it to exec.Q6.
func q6Plan() *Plan {
	return Scan("lineitem").
		Filter("l_shipdate", CmpGE, int64(tpch.Q6ShipdateLo())).Label("shipdate>=lo").
		Filter("l_shipdate", CmpLT, int64(tpch.Q6ShipdateHi())).Label("shipdate<hi").
		Filter("l_discount", CmpGE, tpch.Q6DiscountLo-1e-9).Label("discount>=0.05").
		Filter("l_discount", CmpLE, tpch.Q6DiscountHi+1e-9).Label("discount<=0.07").
		Filter("l_quantity", CmpLT, int64(tpch.Q6QuantityBound)).Label("quantity<24").
		Sum("l_extendedprice * l_discount")
}

// q6ShipdatePlan is the introduction's modified Q6 (four predicates) with
// the given shipdate cutoff; pinned to exec.Q6Shipdate by the same oracle
// test.
func q6ShipdatePlan(cutoff int32) *Plan {
	return Scan("lineitem").
		Filter("l_shipdate", CmpLE, int64(cutoff)).Label("shipdate<=v").
		Filter("l_quantity", CmpLT, int64(tpch.Q6QuantityBound)).Label("quantity<24").
		Filter("l_discount", CmpGE, tpch.Q6DiscountLo-1e-9).Label("discount>=0.05").
		Filter("l_discount", CmpLE, tpch.Q6DiscountHi+1e-9).Label("discount<=0.07").
		Sum("l_extendedprice * l_discount")
}

func TestNewDefaults(t *testing.T) {
	if _, err := New(Config{}); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	for _, a := range []Arch{ArchNehalem, ArchSandyBridge, ArchIvyBridge, ArchBroadwell, ArchAMD} {
		if _, err := New(Config{Arch: a}); err != nil {
			t.Errorf("arch %q rejected: %v", a, err)
		}
	}
	if _, err := New(Config{Arch: "pentium"}); err == nil {
		t.Error("unknown arch accepted")
	}
}

func TestGenerateTPCHOrderings(t *testing.T) {
	e := testEngine(t)
	for _, o := range []Ordering{OrderNatural, OrderSorted, OrderClustered, OrderRandom, ""} {
		d, err := e.GenerateTPCH(5000, 1, o)
		if err != nil {
			t.Fatalf("ordering %q: %v", o, err)
		}
		if d.Lineitems() != 5000 {
			t.Errorf("ordering %q: %d rows", o, d.Lineitems())
		}
	}
	if _, err := e.GenerateTPCH(5000, 1, "spiral"); err == nil {
		t.Error("unknown ordering accepted")
	}
	if _, err := e.GenerateTPCH(0, 1, OrderNatural); err == nil {
		t.Error("zero rows accepted")
	}
}

func TestQ6EndToEnd(t *testing.T) {
	e := testEngine(t)
	d, err := e.GenerateTPCH(30000, 3, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(d, q6Plan())
	if err != nil {
		t.Fatal(err)
	}
	if q.NumOps() != 5 || len(q.OpNames()) != 5 {
		t.Fatalf("Q6 has %d ops", q.NumOps())
	}
	base, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	if base.Qualifying == 0 || base.Millis <= 0 {
		t.Fatalf("degenerate result %+v", base)
	}
	if base.Counters["br_not_taken"] == 0 || base.Counters["l3_access"] == 0 {
		t.Error("counters missing")
	}

	prog, err := e.Exec(q, ExecOptions{Mode: ModeProgressive, Progressive: Progressive{Interval: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Qualifying != base.Qualifying {
		t.Errorf("progressive changed results: %d vs %d", prog.Qualifying, base.Qualifying)
	}
	if math.Abs(prog.Sum-base.Sum) > math.Abs(base.Sum)*1e-9 {
		t.Error("progressive changed aggregate")
	}
	if prog.Stats.Optimizations == 0 {
		t.Error("no optimizations ran")
	}
	if len(prog.Stats.FinalOrder) != 5 {
		t.Errorf("final order %v", prog.Stats.FinalOrder)
	}
}

func TestBuildQ6ShipdateAndWithOrder(t *testing.T) {
	e := testEngine(t)
	d, err := e.GenerateTPCH(20000, 4, OrderRandom)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(d, q6ShipdatePlan(d.ShipdateCutoff(0.3)))
	if err != nil {
		t.Fatal(err)
	}
	if q.NumOps() != 4 {
		t.Fatalf("modified Q6 has %d ops", q.NumOps())
	}
	r1, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := q.WithOrder([]int{3, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Exec(q2, ExecOptions{Mode: ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Qualifying != r2.Qualifying {
		t.Error("result depends on order")
	}
	if _, err := q.WithOrder([]int{0, 0, 1, 2}); err == nil {
		t.Error("invalid permutation accepted")
	}
}

// TestBuildScan runs a two-predicate selection with the revenue sum; the
// compiler's rejection paths are covered by TestCompileValidation.
func TestBuildScan(t *testing.T) {
	e := testEngine(t)
	d, err := e.GenerateTPCH(20000, 5, OrderRandom)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(d, Scan("lineitem").
		Filter("l_quantity", CmpLT, 10).
		Filter("l_discount", CmpGE, 0.05).
		Sum("l_extendedprice * l_discount"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	// Selectivity sanity: quantity<10 is ~18%, discount>=0.05 ~55%.
	frac := float64(res.Qualifying) / float64(d.Lineitems())
	if frac < 0.05 || frac > 0.2 {
		t.Errorf("conjunctive selectivity %v implausible", frac)
	}
	if res.Sum <= 0 {
		t.Error("aggregate empty")
	}
}

func TestEstimateSelectivities(t *testing.T) {
	e := testEngine(t)
	d, err := e.GenerateTPCH(20000, 6, OrderRandom)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(d, Scan("lineitem").Filter("l_quantity", CmpLT, 25)) // ~48%
	if err != nil {
		t.Fatal(err)
	}
	sels, err := e.EstimateSelectivities(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) != 1 {
		t.Fatalf("got %d estimates", len(sels))
	}
	if sels[0] < 0.38 || sels[0] > 0.58 {
		t.Errorf("estimated selectivity %v, want ~0.48", sels[0])
	}
}

func TestRunExperimentFacade(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 24 { // 14 paper figures + 10 extensions
		t.Fatalf("%d experiment ids", len(ids))
	}
	tables, err := RunExperiment("fig07", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 || tables[0].Text == "" || tables[0].CSV == "" {
		t.Error("fig07 rendering empty")
	}
	if _, err := RunExperiment("fig99", true); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestWorkersFacade(t *testing.T) {
	run := func(cfg Config) (Result, Result, Stats) {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d, err := e.GenerateTPCH(30000, 3, OrderNatural)
		if err != nil {
			t.Fatal(err)
		}
		q, err := e.Compile(d, q6Plan())
		if err != nil {
			t.Fatal(err)
		}
		base, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := e.Exec(q, ExecOptions{Mode: ModeProgressive, Progressive: Progressive{Interval: 5}})
		if err != nil {
			t.Fatal(err)
		}
		return base.Result, prog.Result, prog.Stats
	}
	serialBase, serialProg, _ := run(Config{VectorSize: 1024})
	parBase, parProg, st := run(Config{VectorSize: 1024, Workers: 4})
	if parBase.Qualifying != serialBase.Qualifying || parBase.Sum != serialBase.Sum {
		t.Errorf("parallel base result %d/%v, serial %d/%v",
			parBase.Qualifying, parBase.Sum, serialBase.Qualifying, serialBase.Sum)
	}
	if parProg.Qualifying != serialProg.Qualifying || parProg.Sum != serialProg.Sum {
		t.Errorf("parallel progressive result %d/%v, serial %d/%v",
			parProg.Qualifying, parProg.Sum, serialProg.Qualifying, serialProg.Sum)
	}
	if parBase.Cycles >= serialBase.Cycles {
		t.Errorf("4-core makespan %d not below serial %d", parBase.Cycles, serialBase.Cycles)
	}
	if st.Optimizations == 0 {
		t.Error("parallel progressive never optimized")
	}

	scalarBase, _, _ := run(Config{VectorSize: 1024, ScalarExec: true})
	if scalarBase.Qualifying != serialBase.Qualifying || scalarBase.Sum != serialBase.Sum {
		t.Errorf("scalar mode result %d/%v, batch %d/%v",
			scalarBase.Qualifying, scalarBase.Sum, serialBase.Qualifying, serialBase.Sum)
	}
	e, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.Workers() != 2 {
		t.Errorf("Workers() = %d", e.Workers())
	}
}
