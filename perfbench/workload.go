package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"progopt"
)

// Sizes. The simulated last-level cache is 1 MB: scanRows and joinRows put
// the columns a query reads well beyond it, serveRows keeps them inside.
const (
	scanRows   = 200_000
	joinRows   = 300_000
	serveRows  = 16_000
	scanList   = 120 // queries per closed-loop list: >= 10 beyond p90
	serveLevel = 800 // submissions per ladder rate
	blockRows  = 4096
)

// serveLadder are the offered rates (queries per simulated second) of the
// serve-recurring open loop. serveRefLevel is the rate its sim_query_ms_*
// and queue-wait figures are taken at, and serveP90LimitMs the p90 latency
// limit sim_capacity_qps is measured against.
var serveLadder = []float64{10_000, 20_000, 30_000, 40_000, 60_000}

const (
	serveRefLevel   = 0
	serveP90LimitMs = 0.1
	serveRecurring  = 24 // templates; fewer than the default PlanCacheSize of 64
	serveOneOffPct  = 20 // share of submissions with a never-repeated plan
)

// progressive is the adaptive queries' optimizer setting: the paper's
// default interval of 10 vectors between optimization cycles.
var progressive = progopt.Progressive{Interval: 10}

type kind int

const (
	kindScan kind = iota
	kindJoin
	kindGroup
	kindTopK
)

// filter is one selection predicate of a template.
type filter struct {
	col string
	op  progopt.Cmp
	i   int64
	f   float64
	flt bool
}

func intF(col string, op progopt.Cmp, v int64) filter { return filter{col: col, op: op, i: v} }
func fltF(col string, op progopt.Cmp, v float64) filter {
	return filter{col: col, op: op, f: v, flt: true}
}

func (f filter) bound() any {
	if f.flt {
		return f.f
	}
	return f.i
}

func (f filter) String() string { return fmt.Sprintf("%s%s%v", f.col, f.op, f.bound()) }

// template is one distinct plan. Scan filters are declared in the query's
// initial evaluation order.
type template struct {
	key     string
	kind    kind
	filters []filter
	plan    *progopt.Plan
}

func newTemplate(k kind, edges [][3]string, fs []filter) *template {
	p := progopt.Scan("lineitem")
	var key strings.Builder
	fmt.Fprintf(&key, "%d", k)
	for _, e := range edges {
		p = p.JoinOn(e[0], e[1], e[2])
		fmt.Fprintf(&key, "|%s.%s>%s", e[0], e[1], e[2])
	}
	for _, f := range fs {
		p = p.Filter(f.col, f.op, f.bound())
		fmt.Fprintf(&key, "|%s", f)
	}
	switch k {
	case kindGroup:
		p = p.GroupBy("l_quantity", "l_extendedprice")
	case kindTopK:
		p = p.OrderBy("l_extendedprice", progopt.Desc).Limit(10).Sum("l_extendedprice * l_discount")
	default:
		p = p.Sum("l_extendedprice * l_discount")
	}
	return &template{key: key.String(), kind: k, filters: fs, plan: p}
}

// query is one entry of a workload's seeded list.
type query struct {
	t     *template
	order []int // WithOrder permutation; nil keeps the compiled order
	mode  progopt.Mode
	// Serve only: the ladder level and the arrival, in simulated seconds
	// after the level starts.
	level   int
	arrival float64
}

func (q query) adaptive() bool { return q.mode != progopt.ModeFixed }

// orderKey identifies a template in one initial order.
func (q query) orderKey() string { return fmt.Sprintf("%s@%v", q.t.key, q.order) }

// workload is one benchmark workload: its data set, engine configuration and
// seeded query list.
type workload struct {
	name     string
	rows     int
	ordering progopt.Ordering
	cfg      progopt.Config
	prog     progopt.Progressive
	serve    bool
	queries  func(in *inputs, rng *rand.Rand) []query
}

var workloads = []*workload{
	{name: "scan-adaptive", rows: scanRows, ordering: progopt.OrderNatural,
		cfg: progopt.Config{Workers: 1}, prog: progressive, queries: scanQueries},
	{name: "join-graph", rows: joinRows, ordering: progopt.OrderRandom,
		cfg: progopt.Config{Workers: 4}, prog: progressive, queries: joinQueries},
	// An L3-resident table is too short for the default vector size and
	// interval to reach an optimization cycle: 512-tuple vectors and an
	// interval of 2 give every served adaptive query several.
	{name: "serve-recurring", rows: serveRows, ordering: progopt.OrderNatural,
		cfg: progopt.Config{Workers: 4, VectorSize: 512}, prog: progopt.Progressive{Interval: 2},
		serve: true, queries: serveQueries},
	{name: "stored-scan", rows: scanRows, ordering: progopt.OrderSorted,
		cfg: progopt.Config{Workers: 1, Storage: &progopt.StorageConfig{
			BlockRows: blockRows, LatencyCycles: 400, BytesPerCycle: 16,
			ResidentBytes: 256 << 10, SkipScan: true, CompressedScan: true,
		}}, prog: progressive, queries: storedQueries},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// inputs are what query generation may look at: shipdate quantiles (so
// ShipdateCutoff, which sorts the column, never runs per query) and the
// plain columns for ordering filters by selectivity.
type inputs struct {
	cut  map[int]int64 // percent -> ShipdateCutoff(percent/100)
	cols *columns
}

// newInputs takes the shipdate bound at every multiple of 5 percent.
func newInputs(ds *progopt.Dataset, cols *columns) *inputs {
	in := &inputs{cut: make(map[int]int64), cols: cols}
	for p := 5; p < 100; p += 5 {
		in.cut[p] = int64(ds.ShipdateCutoff(float64(p) / 100))
	}
	return in
}

var modes3 = []progopt.Mode{progopt.ModeFixed, progopt.ModeProgressive, progopt.ModeMicroAdaptive}

// scanChoices are the Q6-style predicate kinds, each with a small discrete
// set of bounds.
func scanChoices(in *inputs) [][]filter {
	return [][]filter{
		{intF("l_shipdate", progopt.CmpLE, in.cut[20]), intF("l_shipdate", progopt.CmpLE, in.cut[40]),
			intF("l_shipdate", progopt.CmpLE, in.cut[60]), intF("l_shipdate", progopt.CmpLE, in.cut[80])},
		{fltF("l_discount", progopt.CmpGE, 0.02), fltF("l_discount", progopt.CmpGE, 0.04), fltF("l_discount", progopt.CmpGE, 0.06)},
		{fltF("l_discount", progopt.CmpLE, 0.05), fltF("l_discount", progopt.CmpLE, 0.07), fltF("l_discount", progopt.CmpLE, 0.09)},
		{intF("l_quantity", progopt.CmpLT, 12), intF("l_quantity", progopt.CmpLT, 24), intF("l_quantity", progopt.CmpLT, 36)},
		{fltF("l_tax", progopt.CmpLE, 0.02), fltF("l_tax", progopt.CmpLE, 0.04), fltF("l_tax", progopt.CmpLE, 0.06)},
		{fltF("l_extendedprice", progopt.CmpGE, 10_000), fltF("l_extendedprice", progopt.CmpGE, 30_000), fltF("l_extendedprice", progopt.CmpGE, 50_000)},
	}
}

// pickFilters draws k distinct predicate kinds with one bound each, declared
// worst-first (least selective first, the order the paper's progressive
// optimizer has most to gain from) or in random order.
func pickFilters(in *inputs, rng *rand.Rand, choices [][]filter, k int, worstFirst bool) []filter {
	var fs []filter
	for _, c := range rng.Perm(len(choices))[:k] {
		fs = append(fs, choices[c][rng.IntN(len(choices[c]))])
	}
	if worstFirst {
		sort.SliceStable(fs, func(a, b int) bool { return in.cols.selectivity(fs[a]) > in.cols.selectivity(fs[b]) })
	}
	return fs
}

// Templates come from a fixed design, drawn from designSeed rather than the
// run's seed, so the mix of plans cannot swing the simulated figures; the
// seed draws the data, the sequence and (serving) the arrivals.
const designSeed = 20160901

func newDesign() *rand.Rand { return rand.New(rand.NewPCG(designSeed, 0)) }

// stratified returns n queries balanced over the three modes, the i-th with
// plan mk(i), in a seeded order.
func stratified(rng *rand.Rand, n int, mk func(i int) *template) []query {
	qs := make([]query, n)
	for i := range qs {
		qs[i] = query{t: mk(i), mode: modes3[i%len(modes3)]}
	}
	rng.Shuffle(n, func(a, b int) { qs[a], qs[b] = qs[b], qs[a] })
	return qs
}

// scanQueries: 3-4 predicate scans on one simulated core, a quarter of each
// mode with 3 or 4 predicates, worst-first or not.
func scanQueries(in *inputs, rng *rand.Rand) []query {
	choices, design := scanChoices(in), newDesign()
	return stratified(rng, scanList, func(i int) *template {
		return newTemplate(kindScan, nil, pickFilters(in, design, choices, 3+(i/3)%2, (i/6)%2 == 0))
	})
}

// storedQueries: scans with a shipdate window (which zone maps can prune on
// shipdate-sorted data) plus one or two other predicates, in random order.
func storedQueries(in *inputs, rng *rand.Rand) []query {
	choices, design := scanChoices(in)[1:], newDesign()
	widths := []int{5, 10, 20}
	return stratified(rng, scanList, func(i int) *template {
		w := widths[(i/3)%len(widths)]
		lo := 5 * (1 + design.IntN((95-w)/5))
		fs := append(pickFilters(in, design, choices, 1+(i/9)%2, false),
			intF("l_shipdate", progopt.CmpGE, in.cut[lo]), intF("l_shipdate", progopt.CmpLE, in.cut[lo+w]))
		design.Shuffle(len(fs), func(a, b int) { fs[a], fs[b] = fs[b], fs[a] })
		return newTemplate(kindScan, nil, fs)
	})
}

// joinQueries: 16 join graphs (2-table lineitem-orders and lineitem-part,
// 4-table lineitem-orders-customer plus part) over a spread of filter
// selectivities, each run twice in both modes and both initial orders (the
// greedy default and its reverse), in seeded order.
func joinQueries(in *inputs, rng *rand.Rand) []query {
	orders := [3]string{"lineitem", "l_orderkey", "orders"}
	part := [3]string{"lineitem", "l_partkey", "part"}
	customer := [3]string{"orders", "o_custkey", "customer"}
	var pool []*template
	for _, lo := range []bool{true, false} {
		qty := intF("l_quantity", progopt.CmpLT, 40)
		disc := fltF("l_discount", progopt.CmpGE, 0.02)
		if lo {
			qty, disc = intF("l_quantity", progopt.CmpLT, 20), fltF("l_discount", progopt.CmpGE, 0.05)
		}
		for _, hi := range []bool{true, false} {
			price, size, acct := 50_000.0, int64(40), 0.0
			if hi {
				price, size, acct = 300_000, 10, 6000
			}
			pool = append(pool,
				newTemplate(kindJoin, [][3]string{orders}, []filter{qty, fltF("o_totalprice", progopt.CmpGE, price)}),
				newTemplate(kindJoin, [][3]string{part}, []filter{disc, intF("p_size", progopt.CmpLE, size)}))
			for _, sz := range []int64{10, 40} {
				pool = append(pool, newTemplate(kindJoin, [][3]string{orders, part, customer},
					[]filter{qty, fltF("o_totalprice", progopt.CmpGE, 150_000), intF("p_size", progopt.CmpLE, sz),
						fltF("c_acctbal", progopt.CmpGE, acct)}))
			}
		}
	}
	var qs []query
	for range 2 {
		for _, t := range pool {
			// One operator per filter: every joined table carries exactly one
			// pushed filter, and lineitem one filter of its own.
			rev := make([]int, len(t.filters))
			for j := range rev {
				rev[j] = len(rev) - 1 - j
			}
			for _, m := range []progopt.Mode{progopt.ModeFixed, progopt.ModeProgressive} {
				qs = append(qs, query{t: t, mode: m}, query{t: t, mode: m, order: rev})
			}
		}
	}
	rng.Shuffle(len(qs), func(a, b int) { qs[a], qs[b] = qs[b], qs[a] })
	return qs
}

// serveQueries: per ladder level, serveLevel submissions. Exactly
// serveOneOffPct percent are one-off scans whose plans never repeat; the rest
// cycle through serveRecurring templates (scans, grouped and Top-K plans,
// each with its own mode so the feedback cache can warm-start it). Arrivals
// are exponential, rescaled so every level spans serveLevel/rate simulated
// seconds: an open loop's bursts without the drift of its total.
func serveQueries(in *inputs, rng *rand.Rand) []query {
	choices := scanChoices(in)
	design := newDesign()
	type recurring struct {
		t    *template
		mode progopt.Mode
	}
	rec := make([]recurring, serveRecurring)
	for i := range rec {
		worst := (i/6)%2 == 0
		switch i % 6 {
		case 4:
			rec[i] = recurring{newTemplate(kindGroup, nil, pickFilters(in, design, choices, 2, worst)), progopt.ModeFixed}
		case 5:
			rec[i] = recurring{newTemplate(kindTopK, nil, pickFilters(in, design, choices, 2, worst)), modes3[(i/6)%2]}
		default:
			rec[i] = recurring{newTemplate(kindScan, nil, pickFilters(in, design, choices, 2+i%2, worst)), modes3[i%3]}
		}
	}
	oneOffs := serveLevel * serveOneOffPct / 100
	var qs []query
	for lvl, rate := range serveLadder {
		slots := make([]int, serveLevel) // -1: one-off, else a recurring template
		for i := range slots {
			slots[i] = -1
			if i >= oneOffs {
				slots[i] = (i - oneOffs) % len(rec)
			}
		}
		rng.Shuffle(len(slots), func(a, b int) { slots[a], slots[b] = slots[b], slots[a] })
		gaps := make([]float64, serveLevel)
		total := 0.0
		for i := range gaps {
			gaps[i] = rng.ExpFloat64()
			total += gaps[i]
		}
		at := 0.0
		for i, slot := range slots {
			at += gaps[i] / total * serveLevel / rate
			q := query{level: lvl, arrival: at}
			if slot < 0 {
				// A bound no other submission uses makes the fingerprint new.
				n := len(qs)
				fs := []filter{fltF("l_extendedprice", progopt.CmpGE, 1000+float64(n)+rng.Float64()), choices[3][n%3]}
				q.t, q.mode = newTemplate(kindScan, nil, fs), modes3[n%2]
			} else {
				q.t, q.mode = rec[slot].t, rec[slot].mode
			}
			qs = append(qs, q)
		}
	}
	return qs
}
