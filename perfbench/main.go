// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the progopt public API in a single process, checks every
// answer against a reference computed before timing starts, and prints the
// metrics BENCHMARK.json lists: the end-to-end ones in an untraced run, the
// per-layer ones in a traced run (--trace 1).
//
//	bash perfbench/run.sh --workload scan-adaptive --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Run it from the repository root.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"time"

	"progopt"
)

// setupReps is how many times a run sets up its engine and data set; setup_s
// is the median.
const setupReps = 9

// hostThreads caps GOMAXPROCS so every host runs the simulated cores on the
// same number of threads.
const hostThreads = 2

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed for the data set and the query list")
	seconds := flag.Int("seconds", 10, "measured seconds (whole passes over the query list)")
	traced := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.Parse()
	if err := benchmark(*name, *seed, *seconds, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// benchmark runs one workload and prints its metrics and result line.
func benchmark(name string, seed int64, seconds, traced int) error {
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 || (traced != 0 && traced != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	runtime.GOMAXPROCS(min(hostThreads, runtime.NumCPU()))
	// Heap-profile sampling records stacks at host-timing-dependent points;
	// without it alloc_kb_per_query repeats to within a few bytes per pass.
	runtime.MemProfileRate = 0
	out, err := runWorkload(w, seed, time.Duration(seconds)*time.Second, traced == 1)
	if err != nil {
		return err
	}
	list := sp.EndToEnd
	if traced == 1 {
		list = sp.PerLayer
	}
	res := result{Correct: out.failed == 0 && out.guard == nil, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metricValue, len(list))}
	fmt.Printf("workload %s  seed %d  trace %d  attempted %d  failed %d  error_rate %g\n",
		w.name, seed, traced, out.attempted, out.failed, ratio(float64(out.failed), float64(out.attempted)))
	show := func(m metricSpec) {
		note := ""
		if n, ok := out.samples[m.Name]; ok {
			note = fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Printf("  %-34s %16.6f %s%s\n", m.Name, out.values[m.Name], m.Unit, note)
	}
	for _, m := range list {
		v, ok := out.values[m.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json lists %q, which workload %s does not compute", m.Name, w.name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		show(m)
	}
	if traced == 0 {
		fmt.Println("  wall-clock host figures (per-layer metrics in BENCHMARK.json):")
		for _, m := range []metricSpec{{"host_qps", "1/s"}, {"host_query_ms_p50", "ms"}, {"host_query_ms_p90", "ms"}} {
			show(m)
		}
	}
	if out.guard != nil {
		fmt.Println("  trace guard FAILED:", out.guard)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if out.guard != nil {
		return fmt.Errorf("traced run differs from untraced run: %w", out.guard)
	}
	return nil
}

// metricSpec is the part of a BENCHMARK.json metric entry the run needs.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is a run's metric values (every one the run can compute), the
// sample count behind each percentile, and its correctness.
type outcome struct {
	values            map[string]float64
	samples           map[string]int
	attempted, failed int
	guard             error
}

func (o *outcome) pct(name string, xs []float64, p float64) error {
	v, n, err := percentile(xs, p)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	o.values[name], o.samples[name] = v, n
	return nil
}

// warm makes a storage-backed engine decode the data set's stored image, by
// compiling one plan, so that cost is paid in set-up and not by the first
// timed query.
func warm(w *workload, eng *progopt.Engine, ds *progopt.Dataset) error {
	if w.cfg.Storage == nil {
		return nil
	}
	_, err := eng.Compile(ds, progopt.Scan("lineitem").Filter("l_quantity", progopt.CmpLT, 1))
	return err
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

func runWorkload(w *workload, seed int64, dur time.Duration, traced bool) (*outcome, error) {
	// Set-up: the engine, the data set and, for stored-scan, its encoding and
	// decoded image. Repeated; the last one is measured.
	var setupS, genS, encS []float64
	var eng *progopt.Engine
	var ds *progopt.Dataset
	for range setupReps {
		if eng != nil {
			eng.Close()
		}
		eng, ds = nil, nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if eng, err = progopt.New(w.cfg); err != nil {
			return nil, err
		}
		tg := time.Now()
		if ds, err = eng.GenerateTPCH(w.rows, seed, w.ordering); err != nil {
			return nil, err
		}
		genS = append(genS, since(tg))
		if w.cfg.Storage != nil {
			te := time.Now()
			if _, err := ds.EncodedLineitem(blockRows); err != nil {
				return nil, err
			}
			encS = append(encS, since(te))
		}
		if err := warm(w, eng, ds); err != nil {
			return nil, err
		}
		setupS = append(setupS, since(t0))
	}
	defer eng.Close()

	// Inputs and references, none of it timed.
	cols, err := loadColumns(w, seed)
	if err != nil {
		return nil, err
	}
	qs := w.queries(newInputs(ds, cols), rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15)))
	refs, err := buildReferences(w, ds, cols, qs)
	if err != nil {
		return nil, err
	}

	o := &outcome{values: make(map[string]float64), samples: make(map[string]int)}
	o.values["setup_s"] = median(setupS)
	o.values["tpch.generate_s"] = median(genS)
	o.values["columnar.encode_s"] = median(encS)
	o.values["hw.cold_drift_frac"] = refs.drift

	if !traced {
		ph, err := measure(w, eng, ds, qs, refs, dur, nil)
		if err != nil {
			return nil, err
		}
		o.attempted, o.failed = ph.queries, ph.wrong
		if err := hostMetrics(o, ph); err != nil {
			return nil, err
		}
		return o, endToEnd(o, w, qs, refs, ph)
	}

	// Traced run: half the time untraced (the reference the guard and the
	// overhead compare against), half traced on a fresh engine with
	// Config.Trace, the benchmark's spans and a CPU profile.
	ph, err := measure(w, eng, ds, qs, refs, dur/2, nil)
	if err != nil {
		return nil, err
	}
	tcfg := w.cfg
	tcfg.Trace = &progopt.TraceOptions{}
	teng, err := progopt.New(tcfg)
	if err != nil {
		return nil, err
	}
	defer teng.Close()
	if err := warm(w, teng, ds); err != nil {
		return nil, err
	}
	spans := newSpanLog()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	tph, err := measure(w, teng, ds, qs, refs, dur/2, spans)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	o.attempted, o.failed = ph.queries+tph.queries, ph.wrong+tph.wrong
	o.guard = sameRecords(ph.first, tph.first)
	if err := spans.write(filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))); err != nil {
		return nil, err
	}
	split, err := splitProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for b, v := range split.Shares {
		o.values["host_share."+b] = v
	}
	o.values["profile.samples"] = float64(split.Samples)
	if err := hostMetrics(o, ph); err != nil {
		return nil, err
	}
	return o, perLayer(o, w, ds, qs, ph, tph, spans)
}

// sameRecords is the trace guard: tracing observes, so every simulated
// outcome of the traced first pass must equal the untraced one.
func sameRecords(a, b []record) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d untraced vs %d traced queries", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return fmt.Errorf("query %d: untraced %+v, traced %+v", i, a[i], b[i])
		}
	}
	return nil
}

// simLatencies returns the simulated per-query latencies the sim_query_ms_*
// percentiles are taken over: every query's Millis on a closed loop, the
// reference ladder level's Done - Arrival when serving.
func simLatencies(w *workload, ph *phase) []float64 {
	if w.serve {
		return ph.levels[serveRefLevel].latencyMs
	}
	xs := make([]float64, len(ph.first))
	for i, r := range ph.first {
		xs[i] = r.Millis
	}
	return xs
}

// hostMetrics are the untraced loop's wall-clock figures. On a shared
// 2-vCPU host their run-to-run spread exceeded the largest regression bound
// BENCHMARK.json may set, so they are per-layer (unbounded) metrics, printed
// by every run.
func hostMetrics(o *outcome, ph *phase) error {
	o.values["host_qps"] = ph.qps()
	if err := o.pct("host_query_ms_p50", ph.hostMs, 0.5); err != nil {
		return err
	}
	return o.pct("host_query_ms_p90", ph.hostMs, 0.9)
}

func endToEnd(o *outcome, w *workload, qs []query, refs *references, ph *phase) error {
	v := o.values
	sim := simLatencies(w, ph)
	if err := o.pct("sim_query_ms_p50", sim, 0.5); err != nil {
		return err
	}
	if err := o.pct("sim_query_ms_p90", sim, 0.9); err != nil {
		return err
	}
	var total, fixed, adaptive float64
	for i, r := range ph.first {
		total += r.Millis
		if qs[i].adaptive() {
			fixed += float64(refs.fixedCycles[qs[i].orderKey()])
			adaptive += float64(r.Cycles)
		}
	}
	if w.serve {
		// A served fixed-mode query can report Start after Done, and so a
		// wrapped Result.Cycles (counted as service.start_after_done): the
		// served total is the pool's simulated time over every level.
		pool := 0.0
		for _, l := range ph.levels {
			pool += l.stats.MakespanMillis
		}
		v["sim_ms_total"] = pool
		v["sim_makespan_ms"] = ph.levels[serveRefLevel].stats.MakespanMillis
		p90s := make([]float64, len(ph.levels))
		for i, l := range ph.levels {
			p, _, err := percentile(l.latencyMs, 0.9)
			if err != nil {
				return err
			}
			p90s[i] = p
		}
		v["sim_capacity_qps"] = capacity(serveLadder, p90s, serveP90LimitMs)
	} else {
		// One closed-loop client: the pass's simulated makespan is the sum of
		// its queries, and its throughput the queries over that makespan.
		v["sim_ms_total"] = total
		v["sim_makespan_ms"] = total
		v["sim_capacity_qps"] = ratio(float64(len(ph.first)), total/1e3)
	}
	v["adaptive_speedup"] = ratio(fixed, adaptive)
	v["alloc_kb_per_query"] = float64(ph.allocBytes) / 1024 / float64(len(ph.first))
	v["peak_heap_mb"] = float64(ph.peakLive) / (1 << 20)
	return nil
}

// capacity is the highest offered rate whose p90 latency meets limit,
// interpolated linearly between the last ladder rate that meets it and the
// first that does not: 0 when the lowest rate misses, the top rate when none
// does.
func capacity(rates, p90s []float64, limit float64) float64 {
	if len(rates) == 0 || p90s[0] > limit {
		return 0
	}
	for k := 1; k < len(rates); k++ {
		if p90s[k] > limit {
			return rates[k-1] + (limit-p90s[k-1])/(p90s[k]-p90s[k-1])*(rates[k]-rates[k-1])
		}
	}
	return rates[len(rates)-1]
}

func perLayer(o *outcome, w *workload, ds *progopt.Dataset, qs []query, ph, tph *phase, spans *spanLog) error {
	v := o.values
	n := len(ph.first)
	rows := ds.Lineitems()

	for _, sp := range []struct{ name, key string }{
		{"compile", "plan.compile_ms"}, {"exec", "exec.exec_ms"}, {"submit", "service.submit_ms"},
	} {
		ms, key := spans.millis(sp.name), sp.key
		v[key+"_p50"], v[key+"_p90"] = 0, 0
		if len(ms) == 0 {
			continue // the workload does not call this layer
		}
		if err := o.pct(key+"_p50", ms, 0.5); err != nil {
			return err
		}
		if err := o.pct(key+"_p90", ms, 0.9); err != nil {
			return err
		}
	}
	v["host.cpu_utilization"] = ph.cpu.Seconds() / (ph.elapsed.Seconds() * float64(runtime.GOMAXPROCS(0)))
	v["runtime.mallocs_per_query"] = float64(ph.mallocs) / float64(n)
	v["trace.events_per_query"] = float64(tph.traceEvents) / float64(tph.queries)
	v["trace.overhead_frac"] = ph.qps()/tph.qps() - 1

	c := make(map[string]float64)
	var branching, branchFree, switches, micro, inverted float64
	var adaptive, opts, reorders, reverts, converged, adaptiveCycles float64
	var st progopt.StorageStats
	var stored, storeCycles float64
	for i, r := range ph.first {
		for k, x := range r.Counters {
			c[k] += float64(x)
		}
		branching += float64(r.Impl.BranchingVectors)
		branchFree += float64(r.Impl.BranchFreeVectors)
		if qs[i].mode == progopt.ModeMicroAdaptive {
			switches += float64(r.Impl.ImplSwitches)
			micro++
		}
		if qs[i].adaptive() {
			adaptive++
			opts += float64(r.Optimizations)
			reorders += float64(r.Reorders)
			reverts += float64(r.Reverts)
			converged += float64(r.ConvergedAt)
			adaptiveCycles += float64(r.Cycles)
		}
		if s := r.Served; s != nil && s.Start > s.Done {
			inverted++
		}
		if s := r.Storage; s != nil {
			stored++
			storeCycles += float64(r.Cycles)
			st.BlocksTotal += s.BlocksTotal
			st.BlocksPruned += s.BlocksPruned
			st.VectorsSkipped += s.VectorsSkipped
			st.PlainBytes, st.EncodedBytes = s.PlainBytes, s.EncodedBytes
			st.BlockFetches += s.BlockFetches
			st.BlockHits += s.BlockHits
			st.BytesFetched += s.BytesFetched
			st.StallCycles += s.StallCycles
		}
	}
	v["exec.branchfree_vector_share"] = ratio(branchFree, branching+branchFree)
	v["exec.impl_switches_per_query"] = ratio(switches, micro)
	v["hw.sim_cycles_per_tuple"] = perTuple(c["cycles"], n, rows)
	v["hw.instructions_per_tuple"] = perTuple(c["instructions"], n, rows)
	v["hw.br_mp_rate"] = ratio(c["br_mp"], c["br_cond"])
	v["hw.l1_miss_per_tuple"] = perTuple(c["l1_miss"], n, rows)
	v["hw.l3_miss_per_tuple"] = perTuple(c["l3_miss"], n, rows)
	v["hw.l3_prefetch_share"] = ratio(c["l3_prefetch_access"], c["l3_access"])
	v["hw.mem_lines_per_tuple"] = perTuple(c["mem_access"], n, rows)
	v["core.optimizations_per_query"] = ratio(opts, adaptive)
	v["core.reorders_per_query"] = ratio(reorders, adaptive)
	v["core.revert_ratio"] = ratio(reverts, reorders)
	v["core.converged_at_frac"] = ratio(converged, adaptiveCycles)

	vs := w.cfg.VectorSize
	if vs == 0 {
		vs = 2048 // the engine's default
	}
	vectors := float64((rows + vs - 1) / vs)
	v["columnar.compression_ratio"] = ratio(float64(st.PlainBytes), float64(st.EncodedBytes))
	v["storage.blocks_pruned_frac"] = ratio(float64(st.BlocksPruned), float64(st.BlocksTotal))
	v["storage.vectors_skipped_frac"] = ratio(float64(st.VectorsSkipped), stored*vectors)
	v["storage.tier_hit_rate"] = ratio(float64(st.BlockHits), float64(st.BlockHits+st.BlockFetches))
	v["storage.stall_share"] = ratio(float64(st.StallCycles), storeCycles)
	v["storage.bytes_fetched_per_query"] = ratio(float64(st.BytesFetched), stored)

	v["service.start_after_done"] = inverted
	var hits, lookups, warm, submitted, peakQueued float64
	for _, l := range ph.levels {
		hits += float64(l.stats.PlanCacheHits)
		lookups += float64(l.stats.PlanCacheHits + l.stats.PlanCacheMisses)
		warm += float64(l.stats.FeedbackWarmStarts)
		submitted += float64(l.stats.Submitted)
		peakQueued = max(peakQueued, float64(l.stats.PeakQueued))
	}
	v["service.plan_cache_hit_rate"] = ratio(hits, lookups)
	v["service.feedback_warm_start_rate"] = ratio(warm, submitted)
	v["service.peak_queued"] = peakQueued
	v["service.drain_s"] = median(tph.drainS)
	v["service.queue_wait_ms_p50"], v["service.queue_wait_ms_p90"] = 0, 0
	if w.serve {
		q := ph.levels[serveRefLevel].queueMs
		if err := o.pct("service.queue_wait_ms_p50", q, 0.5); err != nil {
			return err
		}
		if err := o.pct("service.queue_wait_ms_p90", q, 0.9); err != nil {
			return err
		}
	}
	return nil
}
