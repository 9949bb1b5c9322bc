package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"progopt/internal/columnar"
	"progopt/internal/core"
	"progopt/internal/datagen"
	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/service"
	"progopt/internal/tpch"
	"progopt/internal/trace"
)

// adaptiveGoldenPath pins every decision the adaptive drivers make: the
// optimizer track's events, every stats field and the result of each
// (case, driver) pair. It was captured before the serial, parallel and
// served drivers shared one decision policy, and every later version of the
// drivers must reproduce it byte for byte. A missing file is written by the
// test (which then fails, so the new file gets reviewed and committed).
var adaptiveGoldenPath = filepath.Join("testdata", "adaptive_decisions_golden.json")

const goldenVectorSize = 512

type goldenEvent struct {
	Name string   `json:"name"`
	Ts   uint64   `json:"ts"`
	Args []string `json:"args,omitempty"`
}

type goldenSample struct {
	Cycles   uint64   `json:"cycles"`
	Tuples   int      `json:"tuples"`
	Counters []uint64 `json:"counters"`
	Sels     []string `json:"sels"`
}

type goldenStats struct {
	Vectors              int            `json:"vectors"`
	Optimizations        int            `json:"optimizations"`
	Reorders             int            `json:"reorders"`
	Reverts              int            `json:"reverts"`
	FinalOrder           []int          `json:"final_order"`
	LastEstimate         []string       `json:"last_estimate"`
	EstimatorEvaluations int            `json:"estimator_evaluations"`
	Explorations         int            `json:"explorations"`
	ConvergedAtCycles    uint64         `json:"converged_at_cycles"`
	Samples              []goldenSample `json:"samples"`
	Workers              int            `json:"workers"`
	Blocks               int            `json:"blocks"`
	BranchingVectors     int            `json:"branching_vectors"`
	BranchFreeVectors    int            `json:"branch_free_vectors"`
	ImplSwitches         int            `json:"impl_switches"`
}

type goldenResult struct {
	Qualifying int64    `json:"qualifying"`
	Sum        string   `json:"sum_bits"`
	Cycles     uint64   `json:"cycles"`
	Counters   []uint64 `json:"counters"`
}

type goldenRun struct {
	Case   string        `json:"case"`
	Driver string        `json:"driver"`
	Result goldenResult  `json:"result"`
	Stats  goldenStats   `json:"stats"`
	Events []goldenEvent `json:"events"`
}

func floatBits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

func floatBitsAll(fs []float64) []string {
	if fs == nil {
		return nil
	}
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = floatBits(f)
	}
	return out
}

func goldenEventsOf(tr *trace.Track) []goldenEvent {
	var out []goldenEvent
	for _, ev := range tr.Events() {
		g := goldenEvent{Name: ev.Name, Ts: ev.Start}
		for _, a := range ev.Args {
			g.Args = append(g.Args, fmt.Sprintf("%s=%T:%v", a.Key, a.Val, a.Val))
		}
		out = append(out, g)
	}
	return out
}

func goldenResultOf(r exec.Result) goldenResult {
	return goldenResult{
		Qualifying: r.Qualifying,
		Sum:        floatBits(r.Sum),
		Cycles:     r.Cycles,
		Counters:   r.Counters[:],
	}
}

// goldenStatsOf flattens the stats; the block-granular and micro-adaptive
// fields are zero where a driver does not report them.
func goldenStatsOf(st core.Stats) goldenStats {
	g := goldenStats{
		Vectors:              st.Vectors,
		Optimizations:        st.Optimizations,
		Reorders:             st.Reorders,
		Reverts:              st.Reverts,
		FinalOrder:           st.FinalOrder,
		LastEstimate:         floatBitsAll(st.LastEstimate),
		EstimatorEvaluations: st.EstimatorEvaluations,
		Explorations:         st.Explorations,
		ConvergedAtCycles:    st.ConvergedAtCycles,
		Workers:              st.Workers,
		Blocks:               st.Blocks,
		BranchingVectors:     st.BranchingVectors,
		BranchFreeVectors:    st.BranchFreeVectors,
		ImplSwitches:         st.ImplSwitches,
	}
	for _, s := range st.Samples {
		g.Samples = append(g.Samples, goldenSample{
			Cycles:   s.Cycles,
			Tuples:   s.Tuples,
			Counters: append([]uint64(nil), s.Counters[:]...),
			Sels:     floatBitsAll(s.Sels),
		})
	}
	return g
}

// adaptiveCase is one query shape of the decision golden. build returns a
// fresh, unbound query over freshly generated data, so every driver starts
// from the same address-space layout.
type adaptiveCase struct {
	name  string
	rows  int
	build func(t *testing.T, rows int) *exec.Query
	opt   core.Options
	// check asserts the decisions the case exists to exercise.
	check func(t *testing.T, driver string, r goldenRun)
}

func q6Ordered(ordering tpch.Ordering, seed int64) func(*testing.T, int) *exec.Query {
	return func(t *testing.T, rows int) *exec.Query {
		d, err := tpch.Generate(tpch.Config{Lineitems: rows, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		q, err := exec.Q6(d.ReorderLineitem(ordering, seed))
		if err != nil {
			t.Fatal(err)
		}
		// The plan order is reversed so the optimizer has something to fix.
		desc := make([]int, len(q.Ops))
		for i := range desc {
			desc[i] = len(desc) - 1 - i
		}
		qo, err := q.WithOrder(desc)
		if err != nil {
			t.Fatal(err)
		}
		return qo
	}
}

// correlatedQuery is the §4.5 failure mode: c1 equals c0, so after
// "c0 < 600" the predicate "c1 < 600" passes everything while its
// standalone selectivity is 60%.
func correlatedQuery(t *testing.T, rows int) *exec.Query {
	rng := datagen.NewRNG(17)
	c0 := datagen.UniformInt64(rng, rows, 0, 999)
	c1 := append([]int64(nil), c0...)
	c2 := datagen.UniformInt64(rng, rows, 0, 999)
	tb := columnar.NewTable("corr")
	tb.MustAddColumn(columnar.NewInt64("c0", c0))
	tb.MustAddColumn(columnar.NewInt64("c1", c1))
	tb.MustAddColumn(columnar.NewInt64("c2", c2))
	return &exec.Query{
		Table: tb,
		Ops: []exec.Op{
			&exec.Predicate{Col: tb.Column("c0"), Op: exec.LT, I: 600, Label: "c0<600"},
			&exec.Predicate{Col: tb.Column("c1"), Op: exec.LT, I: 600, Label: "c1<600"},
			&exec.Predicate{Col: tb.Column("c2"), Op: exec.LT, I: 500, Label: "c2<500"},
		},
	}
}

// midQuery holds two mid-selectivity predicates, where branch-free
// execution wins and the micro-adaptive drivers switch implementations.
func midQuery(t *testing.T, rows int) *exec.Query {
	d, err := tpch.Generate(tpch.Config{Lineitems: rows, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	d = d.ReorderLineitem(tpch.OrderingRandom, 31)
	return &exec.Query{
		Table: d.Lineitem,
		Ops: []exec.Op{
			&exec.Predicate{Col: d.Lineitem.Column("l_quantity"), Op: exec.LE, I: 25, Label: "qty<=25"},
			&exec.Predicate{Col: d.Lineitem.Column("l_discount"), Op: exec.LE, F: 0.05, Label: "disc<=.05"},
		},
	}
}

// joinQuery is a two-join graph behind a predicate: not branch-free
// eligible, so the micro-adaptive drivers must stay branching.
func joinQuery(t *testing.T, rows int) *exec.Query {
	d, err := tpch.Generate(tpch.Config{Lineitems: rows, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	alloc := cpu.MustNew(cpu.ScaledXeon())
	date := d.Orders.Column("o_orderdate")
	jOrders, err := exec.NewFKJoin(alloc, d.Lineitem.Column("l_orderkey"), d.NumOrders,
		&exec.Predicate{Col: date, Op: exec.LE, I: int64(tpch.QuantileInt32(date, 0.3))}, "join-orders")
	if err != nil {
		t.Fatal(err)
	}
	jLate, err := exec.NewFKJoin(alloc, d.Lineitem.Column("l_orderkey"), d.NumOrders,
		&exec.Predicate{Col: date, Op: exec.GE, I: int64(tpch.QuantileInt32(date, 0.2))}, "join-late")
	if err != nil {
		t.Fatal(err)
	}
	return &exec.Query{
		Table: d.Lineitem,
		Ops: []exec.Op{
			jOrders,
			jLate,
			&exec.Predicate{Col: d.Lineitem.Column("l_quantity"), Op: exec.LE, I: 40, Label: "qty<=40"},
		},
	}
}

func countEvents(r goldenRun, name string) int {
	n := 0
	for _, ev := range r.Events {
		if ev.Name == name {
			n++
		}
	}
	return n
}

func isMicro(driver string) bool { return strings.Contains(driver, "micro") }

func requireEvents(t *testing.T, driver string, r goldenRun, names ...string) {
	t.Helper()
	for _, name := range names {
		if countEvents(r, name) == 0 {
			t.Errorf("%s/%s: no %q event", r.Case, driver, name)
		}
	}
}

func forbidEvents(t *testing.T, driver string, r goldenRun, names ...string) {
	t.Helper()
	for _, name := range names {
		if n := countEvents(r, name); n != 0 {
			t.Errorf("%s/%s: %d %q events", r.Case, driver, n, name)
		}
	}
}

// skippedProbe reports whether the run reached a §4.5 probe point whose
// rotation validation had already rejected: a sample taken after
// exploreEvery consecutive order-confirming samples.
func skippedProbe(r goldenRun, exploreEvery int) bool {
	stable := 0
	for _, ev := range r.Events {
		switch ev.Name {
		case "sample":
			if stable >= exploreEvery {
				return true
			}
			stable++
		case "reorder", "explore":
			stable = 0
		}
	}
	return false
}

func adaptiveCases() []adaptiveCase {
	return []adaptiveCase{
		{
			name: "random", rows: 30000, build: q6Ordered(tpch.OrderingRandom, 41),
			opt: core.Options{ReopInterval: 2},
			check: func(t *testing.T, driver string, r goldenRun) {
				requireEvents(t, driver, r, "sample", "reorder")
				if !isMicro(driver) {
					requireEvents(t, driver, r, "revert")
				}
			},
		},
		{
			name: "sorted", rows: 30000, build: q6Ordered(tpch.OrderingShipdateSorted, 7),
			opt: core.Options{ReopInterval: 3},
			check: func(t *testing.T, driver string, r goldenRun) {
				requireEvents(t, driver, r, "sample", "reorder")
			},
		},
		{
			name: "correlated-explore", rows: 30000, build: correlatedQuery,
			opt: core.Options{ReopInterval: 2, ExploreEvery: 2},
			check: func(t *testing.T, driver string, r goldenRun) {
				requireEvents(t, driver, r, "sample")
				if isMicro(driver) {
					forbidEvents(t, driver, r, "explore")
					return
				}
				requireEvents(t, driver, r, "explore", "revert")
				if strings.HasPrefix(driver, "serial") && !skippedProbe(r, 2) {
					t.Errorf("%s/%s: no probe skipped by the rejected order", r.Case, driver)
				}
			},
		},
		{
			name: "reop-1", rows: 30000, build: q6Ordered(tpch.OrderingClusteredMonth, 5),
			opt: core.Options{ReopInterval: 1},
			check: func(t *testing.T, driver string, r goldenRun) {
				requireEvents(t, driver, r, "sample", "reorder")
			},
		},
		{
			name: "no-validation", rows: 30000, build: q6Ordered(tpch.OrderingRandom, 41),
			opt: core.Options{ReopInterval: 2, DisableValidation: true},
			check: func(t *testing.T, driver string, r goldenRun) {
				requireEvents(t, driver, r, "reorder")
				forbidEvents(t, driver, r, "revert")
			},
		},
		{
			name: "no-predictor-reset", rows: 30000, build: q6Ordered(tpch.OrderingRandom, 41),
			opt: core.Options{ReopInterval: 2, DisablePredictorReset: true},
			check: func(t *testing.T, driver string, r goldenRun) {
				requireEvents(t, driver, r, "sample", "reorder")
			},
		},
		{
			name: "join-graph", rows: 30000, build: joinQuery,
			opt: core.Options{ReopInterval: 2},
			check: func(t *testing.T, driver string, r goldenRun) {
				requireEvents(t, driver, r, "sample")
				forbidEvents(t, driver, r, "impl-switch")
				if r.Stats.BranchFreeVectors != 0 {
					t.Errorf("%s/%s: join graph ran %d branch-free vectors", r.Case, driver, r.Stats.BranchFreeVectors)
				}
			},
		},
		{
			name: "mid-partial", rows: 30000 + goldenVectorSize/3, build: midQuery,
			opt: core.Options{ReopInterval: 2},
			check: func(t *testing.T, driver string, r goldenRun) {
				requireEvents(t, driver, r, "sample")
				if !isMicro(driver) {
					return
				}
				requireEvents(t, driver, r, "impl-switch")
				if r.Stats.BranchFreeVectors == 0 {
					t.Errorf("%s/%s: never ran branch-free", r.Case, driver)
				}
				resampled := false
				for _, ev := range r.Events {
					for _, a := range ev.Args {
						resampled = resampled || (ev.Name == "impl-switch" && a == "resample=bool:true")
					}
				}
				if !resampled && !strings.HasSuffix(driver, "warm") {
					t.Errorf("%s/%s: never resampled branching", r.Case, driver)
				}
			},
		},
	}
}

// goldenWorkers is the pool size of the parallel and served drivers.
const goldenWorkers = 4

// runAdaptiveCase runs one case through every driver: serial, parallel and
// served, each in progressive and micro-adaptive mode, plus a served
// feedback-cache warm start of the same query.
func runAdaptiveCase(t *testing.T, c adaptiveCase) []goldenRun {
	var runs []goldenRun
	add := func(driver string, tr *trace.Track, r exec.Result, st goldenStats) {
		runs = append(runs, goldenRun{
			Case: c.name, Driver: driver,
			Result: goldenResultOf(r), Stats: st, Events: goldenEventsOf(tr),
		})
	}
	prof := cpu.ScaledXeon()
	optWith := func(tr *trace.Track) core.Options {
		o := c.opt
		o.Trace = tr
		return o
	}
	newTrack := func() *trace.Track { return trace.New().NewTrack("optimizer") }

	for _, micro := range []bool{false, true} {
		mode, runSerial, runParallel := "progressive", core.RunProgressive, core.RunParallelProgressive
		if micro {
			mode, runSerial, runParallel = "micro", core.RunMicroAdaptive, core.RunParallelMicroAdaptive
		}

		q := c.build(t, c.rows)
		e := exec.MustEngine(cpu.MustNew(prof), goldenVectorSize)
		if err := e.BindQuery(q); err != nil {
			t.Fatal(err)
		}
		tr := newTrack()
		r, st, err := runSerial(e, q, optWith(tr))
		if err != nil {
			t.Fatal(err)
		}
		add("serial/"+mode, tr, r, goldenStatsOf(st))

		q = c.build(t, c.rows)
		p, err := exec.NewParallel(prof, goldenWorkers, goldenVectorSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.BindQuery(q); err != nil {
			t.Fatal(err)
		}
		tr = newTrack()
		r, st, err = runParallel(p, q, optWith(tr))
		if err != nil {
			t.Fatal(err)
		}
		add("parallel4/"+mode, tr, r, goldenStatsOf(st))

		q = c.build(t, c.rows)
		s, err := service.New(prof, goldenWorkers, goldenVectorSize, false, service.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.BindQuery(q); err != nil {
			t.Fatal(err)
		}
		sm := service.ModeProgressive
		if micro {
			sm = service.ModeMicroAdaptive
		}
		fp := service.Compute(c.name, 0, []string{mode})
		for _, label := range []string{"", "/warm"} {
			tr := newTrack()
			tk, err := s.Submit(service.Request{Query: q, Mode: sm, Opt: optWith(tr), Fingerprint: fp})
			if err != nil {
				t.Fatal(err)
			}
			o, err := tk.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if (label != "") != o.WarmStarted {
				t.Fatalf("%s/served4/%s%s: warm start = %v", c.name, mode, label, o.WarmStarted)
			}
			add("served4/"+mode+label, tr, o.Result, goldenStatsOf(o.Stats))
		}
	}
	return runs
}

func computeAdaptiveGolden(t *testing.T) []goldenRun {
	var all []goldenRun
	for _, c := range adaptiveCases() {
		runs := runAdaptiveCase(t, c)
		for _, r := range runs {
			c.check(t, r.Driver, r)
		}
		all = append(all, runs...)
	}
	return all
}

func marshalAdaptiveGolden(t *testing.T, runs []goldenRun) []byte {
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, r := range runs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		if i < len(runs)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return b.Bytes()
}

// TestAdaptiveDecisionsGolden replays the decision matrix and compares it
// with the committed golden byte for byte, reporting the first differing
// (case, driver) pair.
func TestAdaptiveDecisionsGolden(t *testing.T) {
	got := marshalAdaptiveGolden(t, computeAdaptiveGolden(t))
	want, err := os.ReadFile(adaptiveGoldenPath)
	if os.IsNotExist(err) {
		if err := os.WriteFile(adaptiveGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review and commit it", adaptiveGoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("golden line %d differs:\nwant %s\ngot  %s", i+1, wantLines[i], gotLines[i])
		}
	}
	t.Fatalf("golden has %d lines, computed %d", len(wantLines), len(gotLines))
}
