package core

import (
	"fmt"
	"math"
	"slices"

	cachemodel "progopt/internal/costmodel/cache"
	"progopt/internal/costmodel/markov"
	"progopt/internal/costmodel/peo"
	"progopt/internal/hw/pmu"
)

// CounterSample carries the per-interval PMU readings the estimator inverts:
// the paper's four counters plus the two exact cardinalities derived from
// them (§4.1).
type CounterSample struct {
	// N is the number of tuples executed in the sampled interval.
	N float64
	// BNT is branches not taken.
	BNT float64
	// MPTaken and MPNotTaken are the misprediction counters.
	MPTaken, MPNotTaken float64
	// L3 is the L3-access counter (demand + prefetch).
	L3 float64
	// Qualifying is the output cardinality, 2n - branchesTaken (§2.2.1).
	Qualifying float64
}

// SampleFromPMU derives a CounterSample from a PMU delta over n tuples.
func SampleFromPMU(delta pmu.Sample, n int) CounterSample {
	qual := 2*float64(n) - float64(delta.Get(pmu.BrTaken))
	if qual < 0 {
		qual = 0
	}
	if qual > float64(n) {
		qual = float64(n)
	}
	return CounterSample{
		N:          float64(n),
		BNT:        float64(delta.Get(pmu.BrNotTaken)),
		MPTaken:    float64(delta.Get(pmu.BrMPTaken)),
		MPNotTaken: float64(delta.Get(pmu.BrMPNotTaken)),
		L3:         float64(delta.Get(pmu.L3Access)),
		Qualifying: qual,
	}
}

// EstimatorConfig configures selectivity estimation for one PEO.
type EstimatorConfig struct {
	// Widths are the operator input widths in current evaluation order.
	Widths []int
	// AggWidths are aggregation column widths.
	AggWidths []int
	// Geometry models the L3 level.
	Geometry cachemodel.Geometry
	// Chain models the branch predictor.
	Chain markov.Chain
	// MaxIterNM bounds Nelder-Mead iterations per start (default 10000, the
	// paper's best setting).
	MaxIterNM int
	// AbsTol is the paper's absolute tolerance of 1 between iterations,
	// applied to the raw counter-difference objective of Eq. (10).
	AbsTol float64
	// NoImproveLimit stops after this many consecutive starts without
	// improvement (the paper's n < 5; default 4).
	NoImproveLimit int
	// MaxStarts bounds the number of start points (the paper's m = 2p;
	// default 2*len(Widths)).
	MaxStarts int
	// Weights scales each counter's contribution to the Eq. (10) objective;
	// nil weights every counter at 1 (the paper's choice). Used by the
	// counter-subset ablation.
	Weights *CounterWeights
}

// CounterWeights scales the four counters in the estimation objective.
type CounterWeights struct {
	BNT, L3, MPNotTaken, MPTaken float64
}

func (c *EstimatorConfig) setDefaults() {
	if c.MaxIterNM <= 0 {
		c.MaxIterNM = 10000
	}
	if c.AbsTol <= 0 {
		c.AbsTol = 1
	}
	if c.NoImproveLimit <= 0 {
		c.NoImproveLimit = 4
	}
	if c.MaxStarts <= 0 {
		c.MaxStarts = 2 * len(c.Widths)
	}
	if c.Chain.States() == 0 {
		c.Chain = markov.Paper()
	}
	if c.Geometry.LineSize == 0 {
		c.Geometry = cachemodel.MustGeometry(64, 16384)
	}
}

// Estimation is the estimator's output.
type Estimation struct {
	// Sels are the estimated per-predicate selectivities in evaluation order.
	Sels []float64
	// Products are the cumulative selectivity products (accesses/tupsIn).
	Products []float64
	// Cost is the Eq. (10) objective at the estimate.
	Cost float64
	// Starts is the number of start points tried.
	Starts int
	// NMEvaluations counts objective evaluations across all starts — the
	// optimization work the progressive driver charges to the CPU.
	NMEvaluations int
}

// EstimateSelectivities runs Estimator.Estimate on a fresh workspace.
func EstimateSelectivities(s CounterSample, cfg EstimatorConfig) (Estimation, error) {
	return new(Estimator).Estimate(s, cfg)
}

// Estimator is the workspace of the selectivity estimator: the bounds of the
// free dimensions, the null point, the objective's selectivity scratch, the
// start-point generator and the Nelder-Mead simplex. Estimate reuses every
// buffer, so after the first call of a given predicate count the only
// allocations are the returned Sels and Products. An Estimator is not safe
// for concurrent use: each driver run owns one.
type Estimator struct {
	lo, hi, null []float64
	x0, bestX    []float64
	sels         []float64
	gen          StartPointGen
	nm           nmWorkspace

	// The current call's inputs, read by objective.
	sample   CounterSample
	qualFrac float64
	params   peo.Params
	weights  CounterWeights
	evals    int
}

// Estimate inverts the counter cost models: it searches the (bounded, §4.1)
// space of cumulative selectivity products for the vector whose predicted
// counters (§3) best match the sample, using Nelder-Mead restarts over the
// §4.3 start-point sequence.
//
// The paper's Eq. (10) literally sums signed differences, which would cancel
// opposite-signed errors; we sum absolute differences, which is evidently
// the intent (and is what makes the minimum meaningful).
func (e *Estimator) Estimate(s CounterSample, cfg EstimatorConfig) (Estimation, error) {
	p := len(cfg.Widths)
	if p == 0 {
		return Estimation{}, fmt.Errorf("core: no operators to estimate")
	}
	if s.N <= 0 {
		return Estimation{}, fmt.Errorf("core: non-positive sample size %v", s.N)
	}
	cfg.setDefaults()
	qualFrac := s.Qualifying / s.N
	if qualFrac < 0 {
		qualFrac = 0
	}
	if qualFrac > 1 {
		qualFrac = 1
	}
	if p == 1 {
		return Estimation{
			Sels:     []float64{qualFrac},
			Products: []float64{qualFrac},
			Cost:     0,
			Starts:   0,
		}, nil
	}
	if err := checkRestrict(p, s.N, s.Qualifying, s.BNT); err != nil {
		return Estimation{}, err
	}

	// The last product is pinned to the exact output fraction; only the
	// first p-1 products are free, bounded by the §4.1 access bounds.
	d := p - 1
	e.lo, e.hi, e.null = resized(e.lo, d), resized(e.hi, d), resized(e.null, d)
	e.x0, e.bestX, e.sels = resized(e.x0, d), resized(e.bestX, d), resized(e.sels, p)
	for i := 0; i < d; i++ {
		lo, up := bntBounds(i, p, s.N, s.Qualifying, s.BNT)
		e.lo[i], e.hi[i] = lo/s.N, up/s.N
	}
	e.sample, e.qualFrac, e.evals = s, qualFrac, 0
	e.params = peo.Params{
		N:         int(s.N),
		Widths:    cfg.Widths,
		AggWidths: cfg.AggWidths,
		Geometry:  cfg.Geometry,
		Chain:     cfg.Chain,
	}
	e.weights = CounterWeights{BNT: 1, L3: 1, MPNotTaken: 1, MPTaken: 1}
	if cfg.Weights != nil {
		e.weights = *cfg.Weights
	}

	// Null hypothesis: overall selectivity splits evenly, so products decay
	// geometrically toward qualFrac.
	perPred := math.Pow(math.Max(qualFrac, 1e-12), 1/float64(p))
	prod := 1.0
	for i := range e.null {
		prod *= perPred
		e.null[i] = prod
	}
	if err := e.gen.reset(e.lo, e.hi, e.null); err != nil {
		return Estimation{}, err
	}

	bestCost := math.Inf(1)
	found := false
	noImprove := 0
	starts := 0
	for starts < cfg.MaxStarts && noImprove < cfg.NoImproveLimit {
		res, err := e.nm.minimize(e.objective, e.gen.nextInto(e.x0), NMOptions{
			MaxIter: cfg.MaxIterNM,
			AbsTol:  cfg.AbsTol,
			Lo:      e.lo,
			Hi:      e.hi,
		})
		if err != nil {
			return Estimation{}, err
		}
		starts++
		if res.F < bestCost-cfg.AbsTol {
			copy(e.bestX, res.X)
			bestCost = res.F
			found = true
			noImprove = 0
			// A start that drove the counter mismatch below the tolerance
			// cannot be improved upon meaningfully; stop early to keep the
			// run-time optimization budget small (§4.4's trade-off).
			if bestCost <= cfg.AbsTol {
				break
			}
		} else {
			noImprove++
		}
	}

	// The returned slices escape into driver stats and samples, so they are
	// the call's only fresh allocations.
	best := Estimation{Sels: make([]float64, p), Cost: bestCost, Starts: starts, NMEvaluations: e.evals}
	if !found {
		// Every start failed to beat +Inf (cannot happen with a finite
		// objective, but stay defensive): fall back to the null hypothesis.
		e.selsOf(best.Sels, e.null)
		return best, nil
	}
	e.selsOf(best.Sels, e.bestX)
	best.Products = make([]float64, p)
	pr := 1.0
	for i, sl := range best.Sels {
		pr *= sl
		best.Products[i] = pr
	}
	return best, nil
}

// resized returns buf with length n, reusing its storage when large enough.
func resized(buf []float64, n int) []float64 {
	return slices.Grow(buf[:0], n)[:n]
}

// selsOf converts free cumulative products x into per-predicate
// selectivities in sels and returns the penalty for non-monotone products.
func (e *Estimator) selsOf(sels, x []float64) float64 {
	p := len(sels)
	penalty := 0.0
	prev := 1.0
	for i := 0; i < p; i++ {
		var prod float64
		if i < p-1 {
			prod = x[i]
		} else {
			prod = e.qualFrac
		}
		if prod > prev {
			penalty += (prod - prev) * e.sample.N * 10
			prod = prev
		}
		if prev <= 0 {
			sels[i] = 0
		} else {
			sels[i] = prod / prev
		}
		if sels[i] > 1 {
			sels[i] = 1
		}
		if sels[i] < 0 {
			sels[i] = 0
		}
		prev = prod
	}
	return penalty
}

// objective is the Eq. (10) counter mismatch at free products x.
func (e *Estimator) objective(x []float64) float64 {
	e.evals++
	penalty := e.selsOf(e.sels, x)
	est, err := peo.Counters(e.params, e.sels)
	if err != nil {
		return math.Inf(1)
	}
	w, s := &e.weights, &e.sample
	return w.BNT*math.Abs(s.BNT-est.BNT) +
		w.L3*math.Abs(s.L3-est.L3) +
		w.MPNotTaken*math.Abs(s.MPNotTaken-est.MPNotTaken) +
		w.MPTaken*math.Abs(s.MPTaken-est.MPTaken) +
		penalty
}

// AscendingOrder returns the positions of sels sorted by increasing
// selectivity — the reorder the paper applies after estimation (most
// selective predicate first).
func AscendingOrder(sels []float64) []int {
	idx := make([]int, len(sels))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && sels[idx[j]] < sels[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}
