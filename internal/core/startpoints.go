package core

import "fmt"

// StartPointGen produces the start-point sequence of §4.3 for the non-linear
// optimization over a d-dimensional box: the null-hypothesis point first
// (overall selectivity split evenly over the predicates — C1 in the paper's
// Figure 9), then the 2^d vertices of the box, then, indefinitely, the
// centroid of the largest sub-space induced by splitting at every point
// emitted so far (C2..C6 in Figure 9).
//
// For d > maxSplitDims the 2^d box bookkeeping is replaced by a
// deterministic low-discrepancy (Halton) sequence over the box, which keeps
// the "explore the largest unseen region" intent without exponential state.
//
// The generator keeps its state in flat buffers that reset reuses, so the
// estimator's workspace restarts it without allocating.
type StartPointGen struct {
	lo, hi    []float64
	null      []float64
	d         int
	stage     int // 0: null, 1: vertices, 2: centroids
	vertexIdx int
	halton    int

	// splitting selects the exact splitting scheme (d <= maxSplitDims).
	// The live sub-boxes are kept in emission order: box k spans
	// boxLo[k*d:(k+1)*d] to boxHi[k*d:(k+1)*d] and has volume boxVol[k].
	splitting            bool
	boxLo, boxHi, boxVol []float64
	// parentLo and parentHi hold the box being split while its slot is
	// reused.
	parentLo, parentHi []float64
}

// maxSplitDims bounds the dimensionality of the exact splitting scheme.
const maxSplitDims = 6

// NewStartPointGen builds a generator over the box [lo, hi] with the given
// null-hypothesis point (clamped into the box).
func NewStartPointGen(lo, hi, null []float64) (*StartPointGen, error) {
	g := &StartPointGen{}
	if err := g.reset(lo, hi, null); err != nil {
		return nil, err
	}
	return g, nil
}

// reset restarts the sequence over a new box, reusing the generator's
// buffers. The arguments are copied.
func (g *StartPointGen) reset(lo, hi, null []float64) error {
	d := len(lo)
	if d == 0 || len(hi) != d || len(null) != d {
		return fmt.Errorf("core: start points need consistent dimensions (lo %d, hi %d, null %d)",
			len(lo), len(hi), len(null))
	}
	for i := range lo {
		if hi[i] < lo[i] {
			return fmt.Errorf("core: dimension %d has empty range [%v,%v]", i, lo[i], hi[i])
		}
	}
	g.lo = append(g.lo[:0], lo...)
	g.hi = append(g.hi[:0], hi...)
	g.null = append(g.null[:0], null...)
	for i := range g.null {
		if g.null[i] < lo[i] {
			g.null[i] = lo[i]
		}
		if g.null[i] > hi[i] {
			g.null[i] = hi[i]
		}
	}
	g.d = d
	g.stage, g.vertexIdx, g.halton = 0, 0, 0
	g.splitting = d <= maxSplitDims
	g.boxLo, g.boxHi, g.boxVol = g.boxLo[:0], g.boxHi[:0], g.boxVol[:0]
	if g.splitting {
		g.appendBox(g.lo, g.hi)
	}
	return nil
}

// appendBox adds the box [lo, hi] at the end of the live list.
func (g *StartPointGen) appendBox(lo, hi []float64) {
	vol := 1.0
	for i := range lo {
		vol *= hi[i] - lo[i]
	}
	g.boxLo = append(g.boxLo, lo...)
	g.boxHi = append(g.boxHi, hi...)
	g.boxVol = append(g.boxVol, vol)
}

// Next returns the next start point in a fresh slice. The sequence is
// infinite.
func (g *StartPointGen) Next() []float64 {
	return g.nextInto(make([]float64, g.d))
}

// nextInto writes the next start point into dst (length d) and returns it.
func (g *StartPointGen) nextInto(dst []float64) []float64 {
	switch {
	case g.stage == 0:
		g.stage = 1
		g.split(g.null)
		copy(dst, g.null)
	case g.stage == 1:
		for i := 0; i < g.d; i++ {
			if g.vertexIdx&(1<<i) != 0 {
				dst[i] = g.hi[i]
			} else {
				dst[i] = g.lo[i]
			}
		}
		g.vertexIdx++
		if g.vertexIdx >= 1<<g.d || g.vertexIdx >= 64 {
			g.stage = 2
		}
	default:
		g.centroidPoint(dst)
	}
	return dst
}

// split replaces the box containing pt with the 2^d sub-boxes induced by
// splitting at pt (no-op in Halton mode or when pt lies on a box face).
func (g *StartPointGen) split(pt []float64) {
	if !g.splitting {
		return
	}
	d := g.d
	idx := -1
	for k := range g.boxVol {
		bLo, bHi := g.boxLo[k*d:(k+1)*d], g.boxHi[k*d:(k+1)*d]
		inside := true
		for j := range pt {
			if pt[j] <= bLo[j] || pt[j] >= bHi[j] {
				inside = false
				break
			}
		}
		if inside {
			idx = k
			break
		}
	}
	if idx < 0 {
		return
	}
	g.parentLo = append(g.parentLo[:0], g.boxLo[idx*d:(idx+1)*d]...)
	g.parentHi = append(g.parentHi[:0], g.boxHi[idx*d:(idx+1)*d]...)
	g.boxLo = append(g.boxLo[:idx*d], g.boxLo[(idx+1)*d:]...)
	g.boxHi = append(g.boxHi[:idx*d], g.boxHi[(idx+1)*d:]...)
	g.boxVol = append(g.boxVol[:idx], g.boxVol[idx+1:]...)
	for mask := 0; mask < 1<<d; mask++ {
		k := len(g.boxVol)
		g.boxLo = append(g.boxLo, g.parentLo...)
		g.boxHi = append(g.boxHi, g.parentHi...)
		lo, hi := g.boxLo[k*d:], g.boxHi[k*d:]
		vol := 1.0
		for j := 0; j < d; j++ {
			if mask&(1<<j) != 0 {
				lo[j] = pt[j]
			} else {
				hi[j] = pt[j]
			}
			vol *= hi[j] - lo[j]
		}
		if vol > 0 {
			g.boxVol = append(g.boxVol, vol)
		} else {
			g.boxLo, g.boxHi = g.boxLo[:k*d], g.boxHi[:k*d]
		}
	}
}

// centroidPoint writes the centroid of the largest live box into dst and
// splits that box at it.
func (g *StartPointGen) centroidPoint(dst []float64) {
	if !g.splitting {
		g.haltonPoint(dst)
		return
	}
	best := -1
	for k, vol := range g.boxVol {
		if best < 0 || vol > g.boxVol[best] {
			best = k
		}
	}
	if best < 0 {
		g.haltonPoint(dst)
		return
	}
	d := g.d
	bLo, bHi := g.boxLo[best*d:(best+1)*d], g.boxHi[best*d:(best+1)*d]
	for j := range dst {
		dst[j] = (bLo[j] + bHi[j]) / 2
	}
	g.split(dst)
}

// primes for the Halton fallback.
var haltonPrimes = [...]int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}

func (g *StartPointGen) haltonPoint(dst []float64) {
	g.halton++
	for j := 0; j < g.d; j++ {
		base := haltonPrimes[j%len(haltonPrimes)]
		f, r := 1.0, 0.0
		for i := g.halton; i > 0; i /= base {
			f /= float64(base)
			r += f * float64(i%base)
		}
		dst[j] = g.lo[j] + r*(g.hi[j]-g.lo[j])
	}
}
