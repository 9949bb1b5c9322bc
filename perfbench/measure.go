package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"progopt"
)

// record is everything simulated about one query of the first pass: the
// answer, the clocks, the PMU counters and the optimizer's actions. Tracing
// is a pure observer, so a traced pass must reproduce it exactly.
type record struct {
	answer
	Cycles                           uint64
	Millis                           float64
	Counters                         map[string]uint64
	Optimizations, Reorders, Reverts int
	ConvergedAt                      uint64
	FinalOrder                       []int
	Impl                             progopt.ImplStats
	Storage                          *progopt.StorageStats
	Served                           *progopt.ServedInfo
}

func recordOf(r progopt.ExecResult) record {
	return record{
		answer: answerOf(r), Cycles: r.Cycles, Millis: r.Millis, Counters: r.Counters,
		Optimizations: r.Stats.Optimizations, Reorders: r.Stats.Reorders, Reverts: r.Stats.Reverts,
		ConvergedAt: r.Stats.ConvergedAtCycles, FinalOrder: r.Stats.FinalOrder,
		Impl: r.Impl, Storage: r.Storage, Served: r.Served,
	}
}

// levelStats is one serve ladder level of the first pass.
type levelStats struct {
	stats     progopt.ServerStats
	latencyMs []float64 // Done - Arrival
	queueMs   []float64 // Start - Arrival
}

// phase is one measured loop over a workload's query list: whole passes
// until the time is up.
type phase struct {
	first   []record     // first pass, in list order
	levels  []levelStats // serve: first pass, per ladder level
	hostMs  []float64    // every query of every pass
	drainS  []float64    // serve: per level of every pass
	queries int
	wrong   int // failed calls and wrong answers
	elapsed time.Duration
	passQPS []float64     // queries per second of each pass
	cpu     time.Duration // process CPU time (rusage) over the loop
	// allocBytes and mallocs cover the first pass.
	allocBytes, mallocs uint64
	peakLive            uint64
	traceEvents         int
	heap                *liveHeap
}

// qps is the median pass's throughput: a burst of load from outside the
// process slows one pass, not the figure.
func (p *phase) qps() float64 { return median(p.passQPS) }

// done counts one finished query and samples the live heap.
func (p *phase) done(ms float64) {
	p.hostMs = append(p.hostMs, ms)
	p.queries++
	p.peakLive = max(p.peakLive, p.heap.read())
}

// liveHeap reads the bytes the last GC marked live, without stopping the
// world.
type liveHeap struct{ s []metrics.Sample }

func newLiveHeap() *liveHeap {
	return &liveHeap{s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *liveHeap) read() uint64 {
	metrics.Read(h.s)
	return h.s[0].Value.Uint64()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs whole passes over qs on eng for at least dur (one pass at
// least), checking every answer against refs.
func measure(w *workload, eng *progopt.Engine, ds *progopt.Dataset, qs []query, refs *references, dur time.Duration, spans *spanLog) (*phase, error) {
	p := &phase{heap: newLiveHeap()}
	runtime.GC()
	cpu0 := cpuTime()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < dur; pass++ {
		t0, n0 := time.Now(), p.queries
		var m0 runtime.MemStats
		if pass == 0 {
			runtime.ReadMemStats(&m0)
		}
		var err error
		if w.serve {
			err = servePass(w, eng, ds, qs, refs, p, pass, spans)
		} else {
			err = closedPass(w, eng, ds, qs, refs, p, pass, spans)
		}
		if err != nil {
			return nil, err
		}
		p.passQPS = append(p.passQPS, float64(p.queries-n0)/since(t0))
		if pass == 0 {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			p.allocBytes, p.mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
		}
	}
	p.elapsed = time.Since(start)
	p.cpu = cpuTime() - cpu0
	return p, nil
}

// closedPass runs the list once with one client: each query is compiled and
// executed after the previous one returned. A failed call or a wrong answer
// counts against the run and does not stop it.
func closedPass(w *workload, eng *progopt.Engine, ds *progopt.Dataset, qs []query, refs *references, p *phase, pass int, spans *spanLog) error {
	for i, q := range qs {
		id := pass*len(qs) + i
		root := spans.begin("query", id, -1)
		t0 := time.Now()
		sc := spans.begin("compile", id, root)
		cq, err := compile(eng, ds, q)
		spans.end(sc)
		var res progopt.ExecResult
		if err == nil {
			se := spans.begin("exec", id, root)
			res, err = eng.Exec(cq, progopt.ExecOptions{Mode: q.mode, Progressive: w.prog})
			spans.end(se)
		}
		p.done(float64(time.Since(t0).Nanoseconds()) / 1e6)
		spans.end(root)
		rec := recordOf(res)
		if err != nil || !refs.answers[q.t.key].matches(rec.answer) {
			p.wrong++
		}
		if pass == 0 {
			p.first = append(p.first, rec)
		}
		if tr := eng.Trace(); tr != nil {
			p.traceEvents += tr.NumEvents()
			tr.Reset()
		}
	}
	return nil
}

// servePass runs every ladder level once: a fresh server per level, every
// submission made at its simulated arrival, then each ticket waited for in
// arrival order. A query's host time is its SubmitAt plus its Wait. As in
// closedPass, failures count against the run without stopping it.
func servePass(w *workload, eng *progopt.Engine, ds *progopt.Dataset, qs []query, refs *references, p *phase, pass int, spans *spanLog) error {
	for lvl := range serveLadder {
		root := spans.begin("level", -1, -1)
		srv, err := progopt.NewServer(eng, progopt.ServerConfig{MaxActive: 4})
		if err != nil {
			return err
		}
		type sub struct {
			q      query
			id     int
			ticket *progopt.Ticket
			err    error // from SubmitAt
			ms     float64
		}
		var subs []sub
		for i, q := range qs {
			if q.level != lvl {
				continue
			}
			id := pass*len(qs) + i
			t0 := time.Now()
			ss := spans.begin("submit", id, root)
			t, err := srv.SubmitAt(ds, q.t.plan, progopt.ExecOptions{Mode: q.mode, Progressive: w.prog}, uint64(q.arrival*refs.hz))
			spans.end(ss)
			subs = append(subs, sub{q, id, t, err, float64(time.Since(t0).Nanoseconds()) / 1e6})
		}
		drain := time.Now()
		var ls levelStats
		for _, s := range subs {
			t0 := time.Now()
			sw := spans.begin("wait", s.id, root)
			res, err := progopt.ExecResult{}, s.err
			if err == nil {
				res, err = s.ticket.Wait()
			}
			spans.end(sw)
			p.done(s.ms + float64(time.Since(t0).Nanoseconds())/1e6)
			rec := recordOf(res)
			if err != nil || !refs.answers[s.q.t.key].matches(rec.answer) {
				p.wrong++
			}
			if pass == 0 {
				p.first = append(p.first, rec)
				if err != nil {
					continue
				}
				ls.latencyMs = append(ls.latencyMs, res.Served.LatencyMillis)
				ls.queueMs = append(ls.queueMs, float64(res.Served.Start-res.Served.Arrival)/refs.hz*1e3)
			}
		}
		p.drainS = append(p.drainS, time.Since(drain).Seconds())
		ls.stats = srv.Stats()
		srv.Close()
		if pass == 0 {
			p.levels = append(p.levels, ls)
		}
		if tr := eng.Trace(); tr != nil {
			p.traceEvents += tr.NumEvents()
			tr.Reset()
		}
		spans.end(root)
	}
	return nil
}
