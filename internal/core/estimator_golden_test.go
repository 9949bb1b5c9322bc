package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"progopt/internal/costmodel/markov"
	"progopt/internal/costmodel/peo"
)

// estimatorGoldenPath pins the estimator's exact float64 output. The file
// was produced by the allocating estimator that preceded the reusable
// Estimator workspace; the workspace must reproduce it bit for bit, because
// every simulated cycle charged for optimization, every reorder decision and
// every trace byte depends on these values.
var estimatorGoldenPath = filepath.Join("testdata", "estimator_golden.json")

type goldenEstimate struct {
	Name          string   `json:"name"`
	Sels          []string `json:"sels"`
	Products      []string `json:"products"`
	Cost          string   `json:"cost"`
	Starts        int      `json:"starts"`
	NMEvaluations int      `json:"nm_evaluations"`
}

type goldenPredict struct {
	Chain string `json:"chain"`
	// Rates holds, per grid point, MPTaken, RPTaken, MPNotTaken, RPNotTaken.
	Rates [][4]string `json:"rates"`
}

type estimatorGolden struct {
	Estimates []goldenEstimate `json:"estimates"`
	Predict   []goldenPredict  `json:"predict"`
}

func bitsOf(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

func bitsOfAll(fs []float64) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = bitsOf(f)
	}
	return out
}

func goldenOf(name string, est Estimation) goldenEstimate {
	return goldenEstimate{
		Name:          name,
		Sels:          bitsOfAll(est.Sels),
		Products:      bitsOfAll(est.Products),
		Cost:          bitsOf(est.Cost),
		Starts:        est.Starts,
		NMEvaluations: est.NMEvaluations,
	}
}

// goldenCase is one estimator input of the golden table.
type goldenCase struct {
	name   string
	sample CounterSample
	cfg    EstimatorConfig
}

// roundedSample truncates a synthetic sample's counters to whole events, as
// a real PMU reports them, so the objective never reaches zero and
// Nelder-Mead runs its full course.
func roundedSample(s CounterSample) CounterSample {
	s.BNT = math.Round(s.BNT)
	s.MPTaken = math.Round(s.MPTaken)
	s.MPNotTaken = math.Round(s.MPNotTaken)
	s.L3 = math.Round(s.L3)
	s.Qualifying = math.Round(s.Qualifying)
	return s
}

func goldenCases(t testing.TB) []goldenCase {
	var cases []goldenCase
	add := func(name string, s CounterSample, cfg EstimatorConfig) {
		cases = append(cases, goldenCase{name: name, sample: s, cfg: cfg})
	}
	truths := [][]float64{
		{0.37},
		{0.4, 0.2},
		{0.8, 0.3, 0.6},
		{0.8, 0.3, 0.6, 0.1},
		{0.9, 0.05, 0.5, 0.7, 0.3},
		{0.6, 0.95, 0.2, 0.5, 0.8, 0.4},
	}
	for _, truth := range truths {
		s, cfg := syntheticSample(t, truth, 100000)
		add(fmt.Sprintf("exact/p=%d", len(truth)), s, cfg)
		add(fmt.Sprintf("rounded/p=%d", len(truth)), roundedSample(s), cfg)
	}

	s4, cfg4 := syntheticSample(t, []float64{0.8, 0.3, 0.6, 0.1}, 100000)
	s4 = roundedSample(s4)
	for _, w := range []struct {
		name string
		w    CounterWeights
	}{
		{"bnt", CounterWeights{BNT: 1}},
		{"bnt+l3", CounterWeights{BNT: 1, L3: 1}},
		{"mp", CounterWeights{MPNotTaken: 1, MPTaken: 1}},
		{"no-l3", CounterWeights{BNT: 1, MPNotTaken: 1, MPTaken: 1}},
		{"skewed", CounterWeights{BNT: 0.5, L3: 2, MPNotTaken: 1, MPTaken: 0.25}},
	} {
		c := cfg4
		wv := w.w
		c.Weights = &wv
		add("weights/"+w.name, s4, c)
	}
	for _, starts := range []int{1, 3, 8} {
		c := cfg4
		c.MaxStarts = starts
		add(fmt.Sprintf("starts=%d/p=4", starts), s4, c)
	}

	for _, truth := range [][]float64{{0.3, 0.7, 0.5}, {0.8, 0.3, 0.6, 0.1}} {
		s, cfg := syntheticSample(t, truth, 100000)
		cfg.Chain = markov.AMD()
		params := peo.Params{N: 100000, Widths: cfg.Widths, AggWidths: cfg.AggWidths,
			Geometry: cfg.Geometry, Chain: cfg.Chain}
		est, err := peo.Counters(params, truth)
		if err != nil {
			t.Fatal(err)
		}
		s.MPTaken, s.MPNotTaken = est.MPTaken, est.MPNotTaken
		add(fmt.Sprintf("amd/p=%d", len(truth)), roundedSample(s), cfg)
	}

	sPass, cfgPass := syntheticSample(t, []float64{1, 1}, 50000)
	add("degenerate/all-pass", sPass, cfgPass)
	sKill, cfgKill := syntheticSample(t, []float64{0, 0.5}, 50000)
	add("degenerate/first-kills-all", sKill, cfgKill)

	// Thirteen predicates give a 13-vertex simplex, past the 12-element
	// insertion-sort cutoff of the vertex ordering. The zero-weight variant
	// scores every monotone vertex 0, so the ordering sorts tied values.
	truth13 := []float64{0.9, 0.8, 0.95, 0.7, 0.99, 0.6, 0.85, 0.9, 0.75, 0.97, 0.5, 0.88, 0.92}
	s13, cfg13 := syntheticSample(t, truth13, 200000)
	add("p=13/rounded", roundedSample(s13), cfg13)
	c13 := cfg13
	c13.Weights = &CounterWeights{}
	add("p=13/tied", roundedSample(s13), c13)
	c13b := cfg13
	c13b.Weights = &CounterWeights{BNT: 1}
	add("p=13/bnt", roundedSample(s13), c13b)
	return cases
}

// predictGrid is the selectivity grid of the Chain.Predict pin, including
// the clamped out-of-range inputs.
func predictGrid() []float64 {
	grid := []float64{-0.5, 0, 1e-9, 1 - 1e-9, 1, 1.5}
	for i := 1; i < 64; i++ {
		grid = append(grid, float64(i)/64)
	}
	return grid
}

func computeEstimatorGolden(t *testing.T) estimatorGolden {
	var g estimatorGolden
	for _, c := range goldenCases(t) {
		est, err := EstimateSelectivities(c.sample, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		g.Estimates = append(g.Estimates, goldenOf(c.name, est))
	}
	for _, v := range markov.Variants() {
		gp := goldenPredict{Chain: v.Label}
		for _, p := range predictGrid() {
			r := v.Chain.Predict(p)
			gp.Rates = append(gp.Rates, [4]string{
				bitsOf(r.MPTaken), bitsOf(r.RPTaken), bitsOf(r.MPNotTaken), bitsOf(r.RPNotTaken),
			})
		}
		g.Predict = append(g.Predict, gp)
	}
	return g
}

func marshalEstimatorGolden(t *testing.T, g estimatorGolden) []byte {
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestEstimatorGolden checks that the estimator and the branch model
// reproduce the committed bit patterns exactly.
func TestEstimatorGolden(t *testing.T) {
	want, err := os.ReadFile(estimatorGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := computeEstimatorGolden(t)
	if bytes.Equal(marshalEstimatorGolden(t, got), want) {
		return
	}
	var ref estimatorGolden
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatal(err)
	}
	if len(ref.Estimates) != len(got.Estimates) || len(ref.Predict) != len(got.Predict) {
		t.Fatalf("golden has %d estimates / %d chains, computed %d / %d",
			len(ref.Estimates), len(ref.Predict), len(got.Estimates), len(got.Predict))
	}
	for i := range ref.Estimates {
		a, b := marshalEstimatorGolden(t, estimatorGolden{Estimates: ref.Estimates[i : i+1]}),
			marshalEstimatorGolden(t, estimatorGolden{Estimates: got.Estimates[i : i+1]})
		if !bytes.Equal(a, b) {
			t.Errorf("estimate %q differs:\nwant %s\ngot  %s", ref.Estimates[i].Name, a, b)
		}
	}
	for i := range ref.Predict {
		for j := range ref.Predict[i].Rates {
			if j >= len(got.Predict[i].Rates) || ref.Predict[i].Rates[j] != got.Predict[i].Rates[j] {
				t.Errorf("%s: Predict bits differ at grid point %d", ref.Predict[i].Chain, j)
				break
			}
		}
	}
}
