package core

import (
	"math"
	"reflect"
	"testing"

	cachemodel "progopt/internal/costmodel/cache"
	"progopt/internal/costmodel/markov"
	"progopt/internal/costmodel/peo"
	"progopt/internal/race"
)

// syntheticSample produces the exact counter values the forward model
// predicts for known selectivities — the estimator must recover selectivities
// close to the truth from them (model inversion round trip).
func syntheticSample(t testing.TB, sels []float64, n int) (CounterSample, EstimatorConfig) {
	t.Helper()
	widths := make([]int, len(sels))
	for i := range widths {
		widths[i] = 8
	}
	cfg := EstimatorConfig{
		Widths:    widths,
		AggWidths: []int{8},
		Geometry:  cachemodel.MustGeometry(64, 16384),
		Chain:     markov.Paper(),
	}
	params := peo.Params{
		N: n, Widths: widths, AggWidths: cfg.AggWidths,
		Geometry: cfg.Geometry, Chain: cfg.Chain,
	}
	est, err := peo.Counters(params, sels)
	if err != nil {
		t.Fatal(err)
	}
	return CounterSample{
		N:          float64(n),
		BNT:        est.BNT,
		MPTaken:    est.MPTaken,
		MPNotTaken: est.MPNotTaken,
		L3:         est.L3,
		Qualifying: est.Qualifying,
	}, cfg
}

func TestEstimateSinglePredicateExact(t *testing.T) {
	s, cfg := syntheticSample(t, []float64{0.37}, 100000)
	est, err := EstimateSelectivities(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Sels[0]-0.37) > 1e-9 {
		t.Errorf("single-predicate estimate %v, want exact 0.37", est.Sels[0])
	}
}

func TestEstimateTwoPredicatesRoundTrip(t *testing.T) {
	// The paper's Figure 8 argument: two predicates with distinct counter
	// signatures are recoverable. Check order sensitivity explicitly:
	// (0.4, 0.2) vs (0.2, 0.4) differ in BNT, so both recover correctly.
	for _, truth := range [][]float64{{0.4, 0.2}, {0.2, 0.4}, {0.7, 0.5}, {0.1, 0.9}} {
		s, cfg := syntheticSample(t, truth, 200000)
		est, err := EstimateSelectivities(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range truth {
			if math.Abs(est.Sels[i]-truth[i]) > 0.05 {
				t.Errorf("truth %v: estimated %v (err at %d: %v)", truth, est.Sels, i, est.Sels[i]-truth[i])
				break
			}
		}
	}
}

func TestEstimateFourPredicatesRecoversOrdering(t *testing.T) {
	// With more predicates than counters the system is under-determined
	// (§4.3); the estimator cannot always pin exact values, but it must
	// recover the *ranking*, which is all the reorder step needs.
	truth := []float64{0.8, 0.3, 0.6, 0.1}
	s, cfg := syntheticSample(t, truth, 500000)
	est, err := EstimateSelectivities(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := AscendingOrder(truth)
	gotOrder := AscendingOrder(est.Sels)
	// Compare the top choice (most selective predicate) — the decision the
	// optimizer acts on most strongly.
	if gotOrder[0] != wantOrder[0] {
		t.Errorf("most selective predicate: estimated position %d, want %d (sels %v vs truth %v)",
			gotOrder[0], wantOrder[0], est.Sels, truth)
	}
	// Estimated products must satisfy the exact constraints.
	if math.Abs(est.Products[len(est.Products)-1]-s.Qualifying/s.N) > 0.01 {
		t.Errorf("final product %v, want output fraction %v",
			est.Products[len(est.Products)-1], s.Qualifying/s.N)
	}
}

func TestEstimateRespectsStartBudget(t *testing.T) {
	truth := []float64{0.5, 0.5, 0.5}
	s, cfg := syntheticSample(t, truth, 100000)
	cfg.MaxStarts = 2
	est, err := EstimateSelectivities(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if est.Starts > 2 {
		t.Errorf("used %d starts, budget 2", est.Starts)
	}
	if est.NMEvaluations == 0 {
		t.Error("no evaluations recorded")
	}
}

func TestEstimateValidation(t *testing.T) {
	if _, err := EstimateSelectivities(CounterSample{N: 100}, EstimatorConfig{}); err == nil {
		t.Error("no widths accepted")
	}
	if _, err := EstimateSelectivities(CounterSample{N: 0}, EstimatorConfig{Widths: []int{8}}); err == nil {
		t.Error("zero sample size accepted")
	}
}

func TestEstimateDegenerateAllPass(t *testing.T) {
	s, cfg := syntheticSample(t, []float64{1, 1}, 50000)
	est, err := EstimateSelectivities(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, sl := range est.Sels {
		if sl < 0.95 {
			t.Errorf("all-pass predicate %d estimated at %v", i, sl)
		}
	}
}

func TestEstimateDegenerateFirstKillsAll(t *testing.T) {
	s, cfg := syntheticSample(t, []float64{0, 0.5}, 50000)
	est, err := EstimateSelectivities(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if est.Sels[0] > 0.05 {
		t.Errorf("first predicate estimated at %v, want ~0", est.Sels[0])
	}
}

// TestEstimateMultiStartEscapesLocalOptimum pins the §4.3 motivation: for a
// skewed truth whose counter surface traps Nelder-Mead near the even-split
// null hypothesis, the start-point sequence recovers a far better estimate
// than a single start.
func TestEstimateMultiStartEscapesLocalOptimum(t *testing.T) {
	truth := []float64{1, 0.02, 1, 0.9}
	s, cfg := syntheticSample(t, truth, 1<<20)
	meanErr := func(starts int) float64 {
		c := cfg
		c.MaxStarts = starts
		est, err := EstimateSelectivities(s, c)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for i := range truth {
			sum += math.Abs(est.Sels[i] - truth[i])
		}
		return sum / float64(len(truth))
	}
	single := meanErr(1)
	multi := meanErr(8)
	if single < 0.2 {
		t.Skipf("single start solved this instance (err %v); surface changed", single)
	}
	if multi > single/3 {
		t.Errorf("multi-start err %v not ≪ single-start err %v", multi, single)
	}
}

// TestEstimatorReuseMatchesFresh runs every golden case through one
// Estimator, twice and with the predicate count changing between calls: a
// reused workspace must give the bits a fresh one gives, and an estimate
// already returned must not change when the workspace runs again.
func TestEstimatorReuseMatchesFresh(t *testing.T) {
	cases := goldenCases(t)
	var e Estimator
	type kept struct {
		est  Estimation
		snap goldenEstimate
	}
	var all []kept
	for round := 0; round < 2; round++ {
		for _, c := range cases {
			fresh, err := EstimateSelectivities(c.sample, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Estimate(c.sample, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, snap := goldenOf(c.name, fresh), goldenOf(c.name, got)
			if !reflect.DeepEqual(snap, want) {
				t.Errorf("round %d %s: reused workspace gives %+v, fresh %+v", round, c.name, snap, want)
			}
			all = append(all, kept{got, snap})
		}
	}
	for _, k := range all {
		if now := goldenOf(k.snap.Name, k.est); !reflect.DeepEqual(now, k.snap) {
			t.Errorf("%s: returned estimate changed after later calls", k.snap.Name)
		}
	}
}

// TestEstimatorAllocations pins the allocation-free steady state: one
// objective evaluation allocates nothing, and a whole estimation on a warm
// workspace allocates only the returned Sels and Products.
func TestEstimatorAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	for _, truth := range [][]float64{{0.4, 0.2}, {0.8, 0.3, 0.6, 0.1}, {0.9, 0.05, 0.5, 0.7, 0.3, 0.6, 0.8, 0.2}} {
		s, cfg := syntheticSample(t, truth, 100000)
		s = roundedSample(s)
		var e Estimator
		if _, err := e.Estimate(s, cfg); err != nil {
			t.Fatal(err)
		}
		x := append([]float64(nil), e.null...)
		var sink float64
		if allocs := testing.AllocsPerRun(100, func() { sink = e.objective(x) }); allocs != 0 {
			t.Errorf("p=%d: objective allocates %v times per evaluation", len(truth), allocs)
		}
		_ = sink
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := e.Estimate(s, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("p=%d: warm Estimate allocates %v times, want at most 2", len(truth), allocs)
		}
	}
}

// BenchmarkEstimateSelectivities measures one optimization cycle's
// estimation on a warm workspace, as the adaptive drivers run it: four
// predicates, PMU-like whole-event counters.
func BenchmarkEstimateSelectivities(b *testing.B) {
	s, cfg := syntheticSample(b, []float64{0.8, 0.3, 0.6, 0.1}, 100000)
	s = roundedSample(s)
	var e Estimator
	evals := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		est, err := e.Estimate(s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		evals += est.NMEvaluations
	}
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
}

func TestAscendingOrder(t *testing.T) {
	got := AscendingOrder([]float64{0.9, 0.1, 0.5})
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AscendingOrder = %v, want %v", got, want)
		}
	}
	// Stability on ties: original order preserved.
	got = AscendingOrder([]float64{0.5, 0.5, 0.1})
	if got[0] != 2 || got[1] != 0 || got[2] != 1 {
		t.Errorf("tie handling = %v, want [2 0 1]", got)
	}
	if len(AscendingOrder(nil)) != 0 {
		t.Error("nil input should give empty order")
	}
}

func TestSampleFromPMUClamps(t *testing.T) {
	var d [18]uint64 // pmu.Sample is an array; build via the typed path instead
	_ = d
}
