package core

import (
	"progopt/internal/exec"
	"progopt/internal/hw/pmu"
)

// RunParallelProgressive executes the query morsel-driven across the
// parallel executor's cores with progressive re-optimization at block
// granularity: each block spans ReopInterval vectors per core; at every
// block boundary the per-core PMU deltas are merged and the selectivity
// estimator inverts the cost models over the aggregate — summing per-core
// counters is exactly how a multi-core deployment samples its PMUs — then
// operators are reordered by ascending estimate. The next block validates
// the reorder against the previous block's per-vector cost and reverts on
// regression, the parallel analogue of §4.4's vector-level validation.
//
// Estimation runs on core 0 while the other cores idle at the block barrier,
// so its cycle cost extends the makespan; a reorder re-JITs the scan loop on
// every core (predictor reset + recompile charge). BlockStepper feeds the
// blocks to the same decision policy the serial drivers use, so the §4.5
// correlation probe (Options.ExploreEvery) runs here too.
//
// Query results (Qualifying, Sum) are bit-identical to a serial run and
// deterministic across worker counts; because the morsel scheduler runs on
// simulated clocks, cycle counts, counter samples, and optimizer decisions
// are also fully reproducible run to run.
func RunParallelProgressive(p *exec.Parallel, q *exec.Query, opt Options) (exec.Result, Stats, error) {
	return runParallelAdaptive(p, q, opt, false)
}

// RunParallelMicroAdaptive is RunParallelProgressive extended with per-block
// implementation choice: at every block boundary the per-core PMU deltas are
// merged, selectivities estimated from the aggregate, operators reordered,
// and — when every operator is a plain predicate — the next block's scan
// implementation (branching v. branch-free) is chosen from the estimates.
// A chosen implementation applies to every core: the morsel scheduler keeps
// all cores inside the same compiled scan loop, so an implementation switch
// is a recompile on each core (predictor reset + recompile charge), exactly
// like a reorder.
//
// While running branch-free the merged counters carry no per-predicate
// branch signal, so the driver returns to the branching scan for one
// sampling block every few optimization points (the serial driver's
// resampling policy at block granularity).
//
// Query results are bit-identical to the serial micro-adaptive driver and
// deterministic across worker counts; cycle counts are makespans.
func RunParallelMicroAdaptive(p *exec.Parallel, q *exec.Query, opt Options) (exec.Result, Stats, error) {
	return runParallelAdaptive(p, q, opt, true)
}

// runParallelAdaptive is the shared block loop of the parallel progressive
// and micro-adaptive drivers: run one block over the whole pool, then let the
// stepper validate, estimate, reorder, and (micro) choose the scan
// implementation.
func runParallelAdaptive(p *exec.Parallel, q *exec.Query, opt Options, micro bool) (exec.Result, Stats, error) {
	engines := p.Engines()
	w0 := engines[0].CPU()
	s, err := NewBlockStepper(q, w0.Profile(), p.Workers(), micro, opt)
	if err != nil {
		return exec.Result{}, Stats{}, err
	}

	startSamples := make([]pmu.Sample, len(engines))
	for i, e := range engines {
		startSamples[i] = e.CPU().Sample()
	}

	n := q.Table.NumRows()
	vs := p.VectorSize()
	numVec := p.NumVectors(q)
	blockVecs := s.BlockVectors(p.Workers())
	if blockVecs <= 0 {
		blockVecs = numVec // no re-optimization: one block
	}
	if blockVecs <= 0 {
		blockVecs = 1
	}

	var out exec.Result
	var totalCycles uint64

	for v0 := 0; v0 < numVec; v0 += blockVecs {
		v1 := v0 + blockVecs
		if v1 > numVec {
			v1 = numVec
		}
		// The external accumulator keeps the aggregate's float addition in
		// global vector order across block boundaries: Sum is bit-identical
		// to a serial per-vector run for every worker count and interval.
		br, err := p.RunBlock(s.Query(), v0, v1, s.Impl(), &out.Sum)
		if err != nil {
			return exec.Result{}, Stats{}, err
		}
		out.Qualifying += br.Qualifying
		out.Vectors += br.Vectors
		totalCycles += br.MaxCycles
		tuples := v1*vs - v0*vs
		if v1*vs > n {
			tuples = n - v0*vs
		}
		extra, err := s.AfterBlock(br, tuples, v1 == numVec, w0, engines)
		if err != nil {
			return exec.Result{}, Stats{}, err
		}
		totalCycles += extra
	}

	s.TraceFinal()
	out.Cycles = totalCycles
	out.Millis = w0.MillisOf(totalCycles)
	var merged pmu.Sample
	for i, e := range engines {
		merged = merged.Add(e.CPU().Sample().Sub(startSamples[i]))
	}
	out.Counters = merged
	return out, s.Stats(), nil
}
