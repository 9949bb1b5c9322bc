package core

import (
	"fmt"
	"math"
	"slices"
)

// NMOptions configure the Nelder-Mead simplex search. The defaults follow
// the paper's tuning (§4.2): a maximum of 10k iterations and an absolute
// tolerance of one between successive best values.
type NMOptions struct {
	// MaxIter bounds the number of simplex iterations.
	MaxIter int
	// AbsTol terminates when the spread between the best and worst simplex
	// vertex values falls below it.
	AbsTol float64
	// Lo and Hi are per-dimension box bounds; points are clamped into the
	// box before evaluation. Nil means unbounded.
	Lo, Hi []float64
	// InitialStep sizes the starting simplex relative to the box (default
	// 0.1 of the box width, or 0.1 absolute when unbounded).
	InitialStep float64
	// XTol, when positive, additionally requires the simplex diameter to
	// fall below it before terminating on AbsTol. This guards against the
	// classic Nelder-Mead stall where vertices straddle a minimum
	// symmetrically and their values tie exactly. Zero keeps the paper's
	// value-spread-only criterion.
	XTol float64
}

// NMResult reports the optimization outcome.
type NMResult struct {
	// X is the best point found (clamped into the box).
	X []float64
	// F is the objective value at X.
	F float64
	// Iterations is the number of simplex iterations performed.
	Iterations int
	// Evaluations counts objective calls (the re-optimization overhead the
	// progressive driver charges to the simulated CPU).
	Evaluations int
}

// NelderMead minimizes f starting from x0 using the Nelder-Mead simplex
// method (Nelder & Mead 1965), the algorithm the paper selected from NLopt
// for its selectivity estimation. It runs on a private workspace, so the
// returned X belongs to the caller.
func NelderMead(f func([]float64) float64, x0 []float64, opt NMOptions) (NMResult, error) {
	var w nmWorkspace
	return w.minimize(f, x0, opt)
}

// nmWorkspace holds the simplex and the trial points of a Nelder-Mead run,
// so repeated runs of one dimensionality allocate nothing. Vertices are
// updated by copy; minimize's result X aliases a simplex row and is valid
// only until the workspace runs again.
type nmWorkspace struct {
	simplex                     [][]float64
	values                      []float64
	order                       []int
	centroid, refl, expd, contr []float64
}

// resize shapes the workspace for d dimensions, reusing its buffers when the
// dimensionality is unchanged.
func (w *nmWorkspace) resize(d int) {
	if len(w.values) == d+1 {
		return
	}
	flat := make([]float64, (d+1)*d+4*d)
	w.simplex = make([][]float64, d+1)
	for i := range w.simplex {
		w.simplex[i], flat = flat[:d:d], flat[d:]
	}
	w.centroid, w.refl, w.expd, w.contr = flat[:d:d], flat[d:2*d:2*d], flat[2*d:3*d:3*d], flat[3*d:]
	w.values = make([]float64, d+1)
	w.order = make([]int, d+1)
}

func (w *nmWorkspace) minimize(f func([]float64) float64, x0 []float64, opt NMOptions) (NMResult, error) {
	d := len(x0)
	if d == 0 {
		return NMResult{}, fmt.Errorf("core: zero-dimensional optimization")
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10000
	}
	if opt.AbsTol <= 0 {
		opt.AbsTol = 1e-8
	}
	if opt.Lo != nil && len(opt.Lo) != d {
		return NMResult{}, fmt.Errorf("core: lower bound dimension %d != %d", len(opt.Lo), d)
	}
	if opt.Hi != nil && len(opt.Hi) != d {
		return NMResult{}, fmt.Errorf("core: upper bound dimension %d != %d", len(opt.Hi), d)
	}
	step := opt.InitialStep
	if step <= 0 {
		step = 0.1
	}
	w.resize(d)

	evals := 0
	clamp := func(x []float64) {
		for i := range x {
			if opt.Lo != nil && x[i] < opt.Lo[i] {
				x[i] = opt.Lo[i]
			}
			if opt.Hi != nil && x[i] > opt.Hi[i] {
				x[i] = opt.Hi[i]
			}
		}
	}
	eval := func(x []float64) float64 {
		clamp(x)
		evals++
		return f(x)
	}

	// Initial simplex: x0 plus d vertices offset along each axis.
	simplex, values := w.simplex, w.values
	copy(simplex[0], x0)
	clamp(simplex[0])
	values[0] = eval(simplex[0])
	for i := 0; i < d; i++ {
		v := simplex[i+1]
		copy(v, simplex[0])
		h := step
		if opt.Lo != nil && opt.Hi != nil {
			h = step * (opt.Hi[i] - opt.Lo[i])
			if h == 0 {
				h = 1e-12
			}
		}
		// Step toward the interior if at the upper bound.
		if opt.Hi != nil && v[i]+h > opt.Hi[i] {
			v[i] -= h
		} else {
			v[i] += h
		}
		values[i+1] = eval(v)
	}

	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)

	order, centroid, refl, expd, contr := w.order, w.centroid, w.refl, w.expd, w.contr
	iter := 0
	for ; iter < opt.MaxIter; iter++ {
		orderByValue(order, values)
		best, worst := order[0], order[d]
		if math.Abs(values[worst]-values[best]) < opt.AbsTol {
			if opt.XTol <= 0 {
				break
			}
			diam := 0.0
			for i := 1; i <= d; i++ {
				for j := 0; j < d; j++ {
					if dd := math.Abs(simplex[i][j] - simplex[0][j]); dd > diam {
						diam = dd
					}
				}
			}
			if diam < opt.XTol {
				break
			}
		}
		// Centroid of all but the worst.
		clear(centroid)
		for _, idx := range order[:d] {
			for j := range centroid {
				centroid[j] += simplex[idx][j]
			}
		}
		for j := range centroid {
			centroid[j] /= float64(d)
		}
		// Reflection.
		for j := range refl {
			refl[j] = centroid[j] + alpha*(centroid[j]-simplex[worst][j])
		}
		fRefl := eval(refl)
		secondWorst := order[d-1]
		switch {
		case fRefl < values[best]:
			// Expansion.
			for j := range expd {
				expd[j] = centroid[j] + gamma*(refl[j]-centroid[j])
			}
			if fExp := eval(expd); fExp < fRefl {
				copy(simplex[worst], expd)
				values[worst] = fExp
			} else {
				copy(simplex[worst], refl)
				values[worst] = fRefl
			}
		case fRefl < values[secondWorst]:
			copy(simplex[worst], refl)
			values[worst] = fRefl
		default:
			// Contraction.
			for j := range contr {
				contr[j] = centroid[j] + rho*(simplex[worst][j]-centroid[j])
			}
			if fContr := eval(contr); fContr < values[worst] {
				copy(simplex[worst], contr)
				values[worst] = fContr
			} else {
				// Shrink toward the best vertex.
				for _, idx := range order[1:] {
					for j := range simplex[idx] {
						simplex[idx][j] = simplex[best][j] + sigma*(simplex[idx][j]-simplex[best][j])
					}
					values[idx] = eval(simplex[idx])
				}
			}
		}
	}

	bestIdx := 0
	for i := 1; i <= d; i++ {
		if values[i] < values[bestIdx] {
			bestIdx = i
		}
	}
	return NMResult{
		X:           simplex[bestIdx],
		F:           values[bestIdx],
		Iterations:  iter,
		Evaluations: evals,
	}, nil
}

// orderByValue fills order with the vertex indexes sorted by ascending
// value. slices.SortFunc runs the same pdqsort as sort.Slice, including its
// insertion sort for up to 12 elements, and only ever asks whether cmp < 0,
// so a comparator derived from < alone orders ties exactly as sort.Slice
// with a < less function does, without its reflect-based swapper.
func orderByValue(order []int, values []float64) {
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case values[a] < values[b]:
			return -1
		case values[b] < values[a]:
			return 1
		}
		return 0
	})
}
