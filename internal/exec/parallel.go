package exec

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"progopt/internal/hw/cpu"
	"progopt/internal/hw/pmu"
	"progopt/internal/trace"
)

// Parallel executes queries with morsel-driven parallelism (Leis et al.,
// "Morsel-driven parallelism", SIGMOD 2014) across N simulated cores. The
// driving table is split into morsels of one vector each and the scheduler
// dispenses the next morsel to whichever core is idle first in *simulated*
// time (the core with the smallest cycle clock) — a discrete-event
// simulation of the work-stealing queue, so cores that drew expensive
// morsels automatically receive fewer of them, exactly the self-balancing
// property morsel-driven execution is built for.
//
// All cores share one synthetic physical address space (columns are bound
// once, by whichever CPU allocated them) but simulate private cache
// hierarchies, branch predictors, and PMUs — the private-L1/L2 topology of
// the paper's evaluation machine. Scheduling decisions depend only on
// simulated clocks, so everything is deterministic: Qualifying and Sum are
// bit-identical to a serial run (the aggregate is reduced in global vector
// order), and cycle counts and PMU samples reproduce exactly across runs,
// host machines, and GOMAXPROCS settings.
//
// On multi-core hosts the simulated cores really do run in parallel: the
// scheduler certifies *waves* of morsel assignments whose core choice is
// provably independent of the in-flight morsels' still-unknown durations
// (see buildWave), executes each wave's members concurrently on a persistent
// per-core goroutine pool, and merges results at the wave barrier in global
// vector order. Because each member touches only its own simulated core and
// the merge order is fixed by morsel index — never by host completion order
// — the host schedule cannot influence any simulated observable.
type Parallel struct {
	workers    []*Engine
	vectorSize int
	// blockCores/blockClocks are the reusable identity subset of the
	// whole-pool entry points (RunBlock, RunGroupBy), which always have a
	// single driver.
	blockCores  []int
	blockClocks []uint64
	// run is the default block-run context of the single-driver entry
	// points. Drivers that execute blocks concurrently (the workload
	// service's host-parallel scheduling rounds) allocate their own context
	// per driver with NewBlockRun.
	run BlockRun
	// pool holds the persistent host worker goroutines, started lazily by
	// the first multi-member wave (or segment fan-out) on a GOMAXPROCS > 1
	// host and reused across blocks until Close. Guarded by poolMu for
	// concurrent starters; readers load the atomic pointer.
	poolMu sync.Mutex
	pool   atomic.Pointer[hostPool]
}

// BlockRun is one driver's reusable scratch for block execution: wave slots,
// per-core busy flags, PMU sample snapshots, and the per-call busy-cycle
// counters. The simulation state lives in the Parallel's engines; a BlockRun
// only buffers the coordinator-side bookkeeping of one driver, so several
// drivers may execute blocks on one Parallel concurrently as long as each
// uses its own BlockRun over a disjoint core subset.
type BlockRun struct {
	p             *Parallel
	sampleScratch []pmu.Sample
	waveSlots     []waveSlot
	waveBusy      []bool
	// busyScratch backs BlockResult.WorkerCycles, which therefore stays
	// valid only until the next call on the same BlockRun.
	busyScratch []uint64
}

// NewBlockRun returns a fresh block-run context for one concurrent driver.
func (p *Parallel) NewBlockRun() *BlockRun { return &BlockRun{p: p} }

// NewParallel builds a parallel executor with the given number of worker
// cores, each a fresh CPU of the given profile.
func NewParallel(prof cpu.Profile, workers, vectorSize int) (*Parallel, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("exec: non-positive worker count %d", workers)
	}
	if vectorSize <= 0 {
		return nil, fmt.Errorf("exec: non-positive vector size %d", vectorSize)
	}
	ws := make([]*Engine, workers)
	for i := range ws {
		c, err := cpu.New(prof)
		if err != nil {
			return nil, err
		}
		e, err := NewEngine(c, vectorSize)
		if err != nil {
			return nil, err
		}
		ws[i] = e
	}
	p := &Parallel{workers: ws, vectorSize: vectorSize}
	p.run.p = p
	return p, nil
}

// Workers returns the number of simulated cores.
func (p *Parallel) Workers() int { return len(p.workers) }

// Engines exposes the per-core engines (shared slice; do not mutate).
func (p *Parallel) Engines() []*Engine { return p.workers }

// VectorSize returns tuples per vector (= per morsel).
func (p *Parallel) VectorSize() int { return p.vectorSize }

// SetScalar switches every worker between batch-kernel and tuple-at-a-time
// execution.
func (p *Parallel) SetScalar(scalar bool) {
	for _, w := range p.workers {
		w.SetScalar(scalar)
	}
}

// SetFuse toggles the fused batch kernels on every worker (see
// Engine.SetFuse). Both settings are bit-identical; the unfused path is the
// equivalence oracle.
func (p *Parallel) SetFuse(enable bool) {
	for _, w := range p.workers {
		w.SetFuse(enable)
	}
}

// SetTrace attaches one event track per simulated core (tracks[i] goes to
// core i; nil detaches all). During a wave, core i's track is written only by
// the host goroutine running core i, and the coordinator adds morsel spans at
// the wave barrier while the members are quiesced — single-writer per track
// throughout, so append order is the certified serial schedule and traces
// reproduce byte-for-byte at any GOMAXPROCS.
func (p *Parallel) SetTrace(tracks []*trace.Track) {
	for i, w := range p.workers {
		if tracks == nil || i >= len(tracks) {
			w.SetTrace(nil)
		} else {
			w.SetTrace(tracks[i])
		}
	}
}

// Close stops the persistent host worker goroutines, if any were started.
// The Parallel remains usable afterwards (a later multi-member wave simply
// starts a fresh pool); Close exists so long-lived processes that retire an
// executor on a multi-core host do not leak its goroutines. On single-
// threaded hosts no pool is ever started and Close is a no-op.
func (p *Parallel) Close() {
	p.poolMu.Lock()
	defer p.poolMu.Unlock()
	if hp := p.pool.Swap(nil); hp != nil {
		hp.close()
	}
}

// hostPoolStart returns the persistent host pool, starting it on first use.
// Safe for concurrent callers: the first-start race is resolved under
// poolMu, and the fast path is one atomic load.
func (p *Parallel) hostPoolStart() *hostPool {
	if hp := p.pool.Load(); hp != nil {
		return hp
	}
	p.poolMu.Lock()
	defer p.poolMu.Unlock()
	if hp := p.pool.Load(); hp != nil {
		return hp
	}
	hp := newHostPool(len(p.workers))
	p.pool.Store(hp)
	return hp
}

// Cold flushes caches and resets predictors on every core.
func (p *Parallel) Cold() {
	for _, w := range p.workers {
		w.CPU().FlushCaches()
		w.CPU().ResetPredictor()
	}
}

// NumVectors returns how many vectors (morsels) cover the query's table.
func (p *Parallel) NumVectors(q *Query) int {
	return (q.Table.NumRows() + p.vectorSize - 1) / p.vectorSize
}

// BindQuery binds the query through worker 0's address space and starts all
// cores cold. When the query was already bound by an external engine sharing
// the address-space convention (the usual facade setup), binding is a no-op
// and only the cold start applies.
func (p *Parallel) BindQuery(q *Query) error {
	if err := p.workers[0].BindQuery(q); err != nil {
		return err
	}
	p.Cold()
	return nil
}

// BlockResult reports one morsel block execution.
type BlockResult struct {
	// Qualifying and Sum are the block's query results, reduced in vector
	// order (bit-identical to a serial run).
	Qualifying int64
	Sum        float64
	// Vectors is the number of morsels executed.
	Vectors int
	// MaxCycles is the block makespan: the largest per-core cycle delta.
	MaxCycles uint64
	// WorkerCycles are the per-core cycle deltas.
	WorkerCycles []uint64
	// Counters is the PMU delta summed across cores — the aggregate a
	// multi-core deployment reads by sampling every core's PMU.
	Counters pmu.Sample
}

// fullCores returns the reusable identity core subset and zeroed entry
// clocks covering the whole pool.
func (p *Parallel) fullCores() ([]int, []uint64) {
	if p.blockCores == nil {
		p.blockCores = make([]int, len(p.workers))
		for i := range p.blockCores {
			p.blockCores[i] = i
		}
		p.blockClocks = make([]uint64, len(p.workers))
	}
	for i := range p.blockClocks {
		p.blockClocks[i] = 0
	}
	return p.blockCores, p.blockClocks
}

// RunBlock executes vectors [vecLo, vecHi) of the query morsel-driven over
// the whole pool from zero entry clocks: each vector is one morsel, claimed
// by the core whose simulated clock is furthest behind (ties go to the
// lowest core id). impl selects the scan implementation (the micro-adaptive
// driver runs whole blocks branch-free when the merged counters say
// predication is cheaper on every core); sum is the external aggregate
// accumulator of BlockRun.RunBlockSubset.
func (p *Parallel) RunBlock(q *Query, vecLo, vecHi int, impl ScanImpl, sum *float64) (BlockResult, error) {
	cores, clocks := p.fullCores()
	return p.run.RunBlockSubset(q, vecLo, vecHi, cores, clocks, impl, sum)
}

// waveSlot is one certified (core, morsel) assignment of a wave: the
// scheduling decision plus the member's results, written by whichever host
// goroutine runs the member and read by the coordinator after the wave
// barrier.
type waveSlot struct {
	pos    int // index into the block's core subset
	core   int // pool core id
	v      int // morsel (vector) index
	lo, hi int // row range
	// minEnd is the entry clock plus the guaranteed minimum duration of the
	// morsel — the earliest simulated instant this core could possibly be
	// idle again (see minVectorCycles).
	minEnd uint64
	group  *GroupBy // non-nil: run GroupVector instead of RunVectorImpl
	// Results.
	res      VectorResult
	sel      []int32 // GroupVector survivors (aliases the engine's buffers)
	cycles   uint64
	err      error
	pv       any // panic value captured on a pool goroutine
	panicked bool
}

// minVectorCycles returns a guaranteed lower bound on the simulated cycles
// any engine spends on an n-row vector: every execution mode of every driver
// (batch, fused, scalar, branch-free, and GroupVector) unconditionally
// retires the per-row loop bookkeeping (loopOverheadInstr = 2 instructions)
// and the always-taken back-edge branch (2 instructions: cmp + jcc), so at
// least 4n instructions issue, and load latencies, operator work, and stalls
// only add. The bound is evaluated with the exact integer arithmetic of
// CPU.Cycles (issue quarters, floored), which never exceeds the cycle delta
// the extra instructions alone produce.
func minVectorCycles(n, issueWidth int) uint64 {
	return uint64(4*n) * 4 / uint64(issueWidth) / 4
}

// buildWave certifies a maximal run of morsels starting at vector v for
// concurrent execution and returns the assignments (ascending morsel order)
// plus the next unassigned vector.
//
// The serial reference scheduler assigns each morsel to the idle-first core:
// the smallest clock, ties to the lowest subset position. A wave extends
// this one decision at a time without waiting for in-flight durations: the
// next morsel's core is chosen as the argmin over cores NOT yet in the wave
// (their clocks are exact), and the choice is *certified* by checking that
// the candidate's clock is strictly below every in-flight member's minEnd.
// An in-flight core finishes at entry + duration >= minEnd > candidate
// clock, so whatever the durations turn out to be, the reference scheduler
// would also have picked this candidate — the strict inequality even
// preserves the lowest-position tie rule, because a tie with an in-flight
// core is impossible. The first morsel that fails certification ends the
// wave (a barrier); each core therefore carries at most one morsel per wave.
func (r *BlockRun) buildWave(cores []int, clocks []uint64, v, vecHi, nRows int, gs []*GroupBy) ([]waveSlot, int) {
	p := r.p
	iw := p.workers[0].CPU().Profile().IssueWidth
	// A zone-map-skipped vector (see StorageScan) answers from metadata in
	// zero simulated cycles, so its guaranteed minimum duration is zero:
	// minEnd collapses to the entry clock, no later candidate can certify
	// against it (clocks are >= the argmin's), and the wave ends right after
	// the skipped member — the serial argmin schedule is replayed exactly.
	// The skip bitmap is shared across the run's cores; the subset's first
	// core carries it like every other.
	var skip []bool
	if st := p.workers[cores[0]].stor; st != nil {
		skip = st.Skip
	}
	slots := r.waveSlots[:0]
	if cap(r.waveBusy) < len(cores) {
		r.waveBusy = make([]bool, len(cores))
	}
	busy := r.waveBusy[:len(cores)]
	for i := range busy {
		busy[i] = false
	}
	for v < vecHi {
		i := -1
		for j := range clocks {
			if !busy[j] && (i < 0 || clocks[j] < clocks[i]) {
				i = j
			}
		}
		if i < 0 {
			break // every core already carries a morsel
		}
		certified := true
		for s := range slots {
			if clocks[i] >= slots[s].minEnd {
				certified = false
				break
			}
		}
		if !certified {
			break
		}
		lo := v * p.vectorSize
		hi := lo + p.vectorSize
		if hi > nRows {
			hi = nRows
		}
		minVC := minVectorCycles(hi-lo, iw)
		if v < len(skip) && skip[v] {
			minVC = 0
		}
		slot := waveSlot{
			pos: i, core: cores[i], v: v, lo: lo, hi: hi,
			minEnd: clocks[i] + minVC,
		}
		if gs != nil {
			slot.group = gs[cores[i]]
		}
		slots = append(slots, slot)
		busy[i] = true
		v++
	}
	r.waveSlots = slots
	return slots, v
}

// hostPool holds the persistent host worker goroutines: one per simulated
// core for wave members (each drains its own job channel, so a wave member
// always runs on the goroutine dedicated to its simulated core — one core's
// simulation state is only ever touched from one goroutine at a time), plus
// a separate set of segment drivers that execute whole-segment closures for
// RunSegments. The two sets must be distinct: a segment closure itself
// dispatches wave jobs and blocks at wave barriers, so running it on a
// per-core wave goroutine could deadlock waiting for its own core's jobs.
type hostPool struct {
	jobs []chan func()
	seg  chan func()
}

func newHostPool(n int) *hostPool {
	hp := &hostPool{jobs: make([]chan func(), n), seg: make(chan func(), n)}
	for i := range hp.jobs {
		ch := make(chan func(), 1)
		hp.jobs[i] = ch
		go func() {
			for f := range ch {
				f()
			}
		}()
	}
	for i := 0; i < n; i++ {
		go func() {
			for f := range hp.seg {
				f()
			}
		}()
	}
	return hp
}

func (hp *hostPool) close() {
	for _, ch := range hp.jobs {
		close(ch)
	}
	close(hp.seg)
}

// RunSegments executes the given closures concurrently on the persistent
// host pool's segment drivers and returns after all complete — the fan-out
// primitive for the workload service's host-parallel scheduling rounds. The
// closures must be mutually data-independent (distinct queries on disjoint
// core subsets, each with its own BlockRun). On a single-threaded host, or
// with a single closure, everything runs inline on the caller in slice order
// with zero dispatch overhead. A closure panic is captured on its driver
// goroutine and re-raised on the caller after the barrier; when several
// members panic, the lowest slice index wins, so the surfaced failure is
// deterministic.
func (p *Parallel) RunSegments(fns []func()) {
	if len(fns) == 0 {
		return
	}
	if len(fns) == 1 || runtime.GOMAXPROCS(0) == 1 {
		for _, f := range fns {
			f()
		}
		return
	}
	hp := p.hostPoolStart()
	pvs := make([]any, len(fns))
	panicked := make([]bool, len(fns))
	var wg sync.WaitGroup
	wg.Add(len(fns) - 1)
	for i := 1; i < len(fns); i++ {
		i, f := i, fns[i]
		hp.seg <- func() {
			defer func() {
				if r := recover(); r != nil {
					pvs[i], panicked[i] = r, true
				}
				wg.Done()
			}()
			f()
		}
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				pvs[0], panicked[0] = r, true
			}
		}()
		fns[0]()
	}()
	wg.Wait()
	for i := range fns {
		if panicked[i] {
			panic(pvs[i])
		}
	}
}

// runSlot executes one wave member on its simulated core and records the
// result and cycle delta.
func (p *Parallel) runSlot(q *Query, impl ScanImpl, s *waveSlot) {
	eng := p.workers[s.core]
	c := eng.CPU()
	c0 := c.Cycles()
	if s.group != nil {
		s.sel, s.err = eng.GroupVector(q, s.group, s.lo, s.hi)
	} else {
		s.res, s.err = eng.RunVectorImpl(q, s.lo, s.hi, impl)
	}
	s.cycles = c.Cycles() - c0
}

// runWave executes the wave's members. Single-member waves — and any wave on
// a single-threaded host — run inline on the calling goroutine with zero
// dispatch overhead (and, on an error or panic, behavior identical to the
// fully serial scheduler). Larger waves dispatch members 1..k to the
// persistent per-core goroutines, run member 0 on the coordinator, and block
// at the wave barrier. A member panic (e.g. an out-of-range foreign key) is
// captured on the worker goroutine and re-raised on the coordinator after
// the barrier.
func (r *BlockRun) runWave(q *Query, impl ScanImpl, slots []waveSlot) {
	p := r.p
	if len(slots) == 1 || runtime.GOMAXPROCS(0) == 1 {
		for i := range slots {
			p.runSlot(q, impl, &slots[i])
		}
		return
	}
	hp := p.hostPoolStart()
	var wg sync.WaitGroup
	wg.Add(len(slots) - 1)
	for i := 1; i < len(slots); i++ {
		s := &slots[i]
		hp.jobs[s.core] <- func() {
			defer func() {
				if r := recover(); r != nil {
					s.pv, s.panicked = r, true
				}
				wg.Done()
			}()
			p.runSlot(q, impl, s)
		}
	}
	p.runSlot(q, impl, &slots[0])
	wg.Wait()
	for i := range slots {
		if slots[i].panicked {
			panic(slots[i].pv)
		}
	}
}

// RunBlockSubset executes vectors [vecLo, vecHi) of the query morsel-driven
// on a dynamic subset of the pool's cores — the primitive the workload
// service partitions cores across concurrent queries with. cores lists the
// participating core ids in strictly ascending order; clocks[i] is the
// absolute simulated time core cores[i] is next free, continued from the
// caller's discrete-event state and updated in place. Each morsel goes to
// the subset core whose clock is smallest (ties to the lowest position), so
// a core that enters the block behind the others naturally backfills first —
// the same self-balancing rule RunBlock applies from an even start.
//
// Execution proceeds in certified waves (see buildWave) whose members run
// host-parallel on multi-core machines; results merge at each wave barrier
// in ascending morsel order, so every simulated observable — results, cycle
// clocks, PMU counters, float bit patterns — is identical to the serial
// scheduler's for every Workers and GOMAXPROCS combination.
//
// The returned BlockResult reports WorkerCycles[i] as the busy cycles core
// cores[i] consumed in this call, MaxCycles as the block makespan measured
// from the earliest entry clock, and Counters as the subset's merged PMU
// deltas. Parallel.RunBlock is this call over the full pool from zero
// entry clocks.
//
// sum, when non-nil, receives the per-vector aggregate contributions in
// global vector order and BlockResult.Sum stays zero: a caller that splits
// one logical scan into many scheduling quanta accumulates into the same
// float across all of them, preserving the exact addition order (and
// therefore the bit pattern) of an unsplit run. With sum == nil the block's
// contribution is reduced into BlockResult.Sum, the dedicated drivers'
// per-block contract.
//
// The coordinator-side scratch (wave slots, PMU snapshots, the WorkerCycles
// backing array) comes from this BlockRun, so concurrent drivers over
// disjoint core subsets do not contend.
func (r *BlockRun) RunBlockSubset(q *Query, vecLo, vecHi int, cores []int, clocks []uint64, impl ScanImpl, sum *float64) (BlockResult, error) {
	p := r.p
	if err := q.Validate(); err != nil {
		return BlockResult{}, err
	}
	if len(cores) == 0 {
		return BlockResult{}, fmt.Errorf("exec: block needs at least one core")
	}
	if len(clocks) != len(cores) {
		return BlockResult{}, fmt.Errorf("exec: %d clocks for %d cores", len(clocks), len(cores))
	}
	for i, w := range cores {
		if w < 0 || w >= len(p.workers) {
			return BlockResult{}, fmt.Errorf("exec: core %d outside pool of %d", w, len(p.workers))
		}
		if i > 0 && w <= cores[i-1] {
			return BlockResult{}, fmt.Errorf("exec: core subset %v not strictly ascending", cores)
		}
	}
	n := q.Table.NumRows()
	numVec := (n + p.vectorSize - 1) / p.vectorSize
	if vecLo < 0 || vecHi > numVec || vecLo > vecHi {
		return BlockResult{}, fmt.Errorf("exec: block [%d,%d) outside %d vectors", vecLo, vecHi, numVec)
	}
	nw := len(cores)
	entryMin := clocks[0]
	for _, cl := range clocks[1:] {
		if cl < entryMin {
			entryMin = cl
		}
	}
	if cap(r.busyScratch) < nw {
		r.busyScratch = make([]uint64, nw)
	}
	busy := r.busyScratch[:nw]
	for i := range busy {
		busy[i] = 0
	}
	if cap(r.sampleScratch) < nw {
		r.sampleScratch = make([]pmu.Sample, nw)
	}
	startSamples := r.sampleScratch[:nw]
	for i, w := range cores {
		startSamples[i] = p.workers[w].CPU().Sample()
	}
	var out BlockResult
	wave := 0
	for v := vecLo; v < vecHi; {
		slots, nv := r.buildWave(cores, clocks, v, vecHi, n, nil)
		r.runWave(q, impl, slots)
		// Wave barrier: merge in ascending morsel order. Clock updates feed
		// the next wave's scheduling; the aggregate accumulates in global
		// vector order for a serial-identical float bit pattern.
		for i := range slots {
			s := &slots[i]
			if s.err != nil {
				return BlockResult{}, s.err
			}
			clocks[s.pos] += s.cycles
			busy[s.pos] += s.cycles
			out.Qualifying += s.res.Qualifying
			if sum != nil {
				*sum += s.res.Sum
			} else {
				out.Sum += s.res.Sum
			}
			out.Vectors++
			// Morsel spans are emitted by the coordinator while the members
			// are quiesced at the barrier: the core clock still reads the
			// slot's end, and append order (ascending morsel) is a pure
			// function of the certified schedule.
			if tr := p.workers[s.core].tr; tr != nil {
				end := p.workers[s.core].CPU().Cycles()
				tr.Span("morsel", end-s.cycles, end,
					trace.A("v", s.v), trace.A("wave", wave), trace.A("rows", s.hi-s.lo))
			}
		}
		wave++
		v = nv
	}
	out.WorkerCycles = busy
	if out.Vectors > 0 {
		for _, cl := range clocks {
			if cl-entryMin > out.MaxCycles {
				out.MaxCycles = cl - entryMin
			}
		}
	}
	for i, w := range cores {
		out.Counters = out.Counters.Add(p.workers[w].CPU().Sample().Sub(startSamples[i]))
	}
	return out, nil
}

// RunGroupBy executes the query's filters and aggregates survivors
// morsel-driven across all cores with per-core partial hash tables: worker w
// updates only gs[w] (its private table region, so hash-table maintenance
// hits its own cache hierarchy), and at the barrier after the scan core 0
// merges every other core's partial slots into its table, extending the
// makespan — the standard shared-nothing parallel aggregation plan.
//
// The scan runs in the same certified waves as RunBlockSubset (host-parallel
// on multi-core machines); each wave's survivor vectors reduce into the
// accumulator at the barrier in global vector order, so Groups (keys, sums,
// counts) are bit-identical to a serial Engine.RunGroupBy and deterministic
// across worker counts and GOMAXPROCS settings.
func (p *Parallel) RunGroupBy(q *Query, gs []*GroupBy) (GroupResult, error) {
	if err := q.Validate(); err != nil {
		return GroupResult{}, err
	}
	nw := len(p.workers)
	if len(gs) != nw {
		return GroupResult{}, fmt.Errorf("exec: %d partial group tables for %d workers", len(gs), nw)
	}
	for w, g := range gs {
		if g == nil {
			return GroupResult{}, fmt.Errorf("exec: nil partial group table for worker %d", w)
		}
	}
	n := q.Table.NumRows()
	numVec := p.NumVectors(q)
	cores, clocks := p.fullCores()
	if cap(p.run.sampleScratch) < nw {
		p.run.sampleScratch = make([]pmu.Sample, nw)
	}
	startSamples := p.run.sampleScratch[:nw]
	for w, eng := range p.workers {
		startSamples[w] = eng.CPU().Sample()
	}
	acc := gs[0].accTable()
	// workerKeys tracks which keys each core's partial table holds, for the
	// merge phase (sorted for determinism). Count doubles as the presence
	// marker; sums stay zero. The tables escape into nothing but grow with
	// the key domain, so they stay per-call rather than pool scratch.
	workerKeys := make([]*groupTable, nw)
	for w := range workerKeys {
		workerKeys[w] = gs[w].accTable()
	}
	var out GroupResult
	for v := 0; v < numVec; {
		slots, nv := p.run.buildWave(cores, clocks, v, numVec, n, gs)
		p.run.runWave(q, ImplBranching, slots)
		// Wave barrier: reduce survivor vectors in ascending morsel order, so
		// per-key accumulation order is the global row order — identical
		// float association to a serial run for every worker count.
		for si := range slots {
			s := &slots[si]
			if s.err != nil {
				return GroupResult{}, s.err
			}
			w := s.pos
			clocks[w] += s.cycles
			for _, r := range s.sel {
				gs[w].apply(acc, int(r))
				workerKeys[w].at(gs[w].GroupCol.Int64At(int(r))).Count = 1
			}
			out.Qualifying += int64(len(s.sel))
			out.Vectors++
			if tr := p.workers[s.core].tr; tr != nil {
				end := p.workers[s.core].CPU().Cycles()
				tr.Span("morsel", end-s.cycles, end,
					trace.A("v", s.v), trace.A("rows", s.hi-s.lo), trace.A("grouped", true))
			}
		}
		v = nv
	}
	// Merge barrier: every core must finish scanning before core 0 folds the
	// partial tables, so the merge starts at the scan makespan (the slowest
	// core's clock) and extends it — not core 0's own scan clock.
	var scanMakespan uint64
	for _, cl := range clocks {
		if cl > scanMakespan {
			scanMakespan = cl
		}
	}
	// Core 0 folds every other core's partial slots into its table (one read
	// of the remote slot, one read-modify-write of its own).
	c0 := p.workers[0].CPU()
	mergeStart := c0.Cycles()
	for w := 1; w < nw; w++ {
		for _, k := range workerKeys[w].sortedKeys() {
			c0.Load(gs[w].slotAddr(k))
			c0.Load(gs[0].slotAddr(k))
			c0.Exec(groupMergeCostInstr)
		}
	}
	mergeCycles := c0.Cycles() - mergeStart
	if tr := p.workers[0].tr; tr != nil && mergeCycles > 0 {
		tr.Span("group-merge", mergeStart, c0.Cycles(), trace.A("workers", nw))
	}

	for w, eng := range p.workers {
		out.Counters = out.Counters.Add(eng.CPU().Sample().Sub(startSamples[w]))
	}
	out.Groups = acc.groups()
	out.Cycles = scanMakespan + mergeCycles
	out.Millis = p.workers[0].CPU().MillisOf(out.Cycles)
	return out, nil
}

// Run executes the whole table morsel-driven under the query's fixed
// operator order. Result.Cycles is the makespan (the slowest core's cycle
// count) and Result.Counters the merged per-core PMU deltas.
func (p *Parallel) Run(q *Query) (Result, error) {
	br, err := p.RunBlock(q, 0, p.NumVectors(q), ImplBranching, nil)
	if err != nil {
		return Result{}, err
	}
	out := Result{
		Qualifying: br.Qualifying,
		Sum:        br.Sum,
		Vectors:    br.Vectors,
		Cycles:     br.MaxCycles,
		Counters:   br.Counters,
	}
	out.Millis = p.workers[0].CPU().MillisOf(out.Cycles)
	return out, nil
}
