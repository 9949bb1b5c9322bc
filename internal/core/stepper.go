package core

import (
	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/trace"
)

// BlockStepper feeds the adaptive policy at morsel-block granularity: every
// finished block is one policy window, its cost the block makespan per
// vector, and every block but the query's last an optimization point. It is
// the shared coordinator of RunParallelProgressive, RunParallelMicroAdaptive,
// and the workload service's scheduler, which drives the same coordination
// while the query runs on a *dynamic* subset of cores: the stepper never
// talks to the morsel scheduler, it only consumes finished BlockResults and
// tells the caller which query order and scan implementation the next block
// must run.
type BlockStepper struct {
	p policy

	// accounted is the simulated cycle cost attributed to the query so far
	// (block makespans plus coordination): the policy's clock.
	accounted uint64
	// extra is the coordination cost of the block being coordinated, on
	// coord (estimation) and engines (recompiles).
	extra   uint64
	coord   *cpu.CPU
	engines []*exec.Engine
}

// NewBlockStepper builds the coordination state for one query. prof supplies
// the cache geometry the estimator models; workers is reported in the stats
// (the pool size the run is scheduled on). micro enables per-block
// implementation choice.
func NewBlockStepper(q *exec.Query, prof cpu.Profile, workers int, micro bool, opt Options) (*BlockStepper, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	s := &BlockStepper{p: newPolicy(q, prof, micro, opt)}
	s.p.st.Workers = workers
	return s, nil
}

// Query returns the query in its current operator order; the next block must
// execute it.
func (s *BlockStepper) Query() *exec.Query { return s.p.curQ }

// Impl returns the scan implementation the next block must run
// (ImplBranching unless a micro stepper chose predication).
func (s *BlockStepper) Impl() exec.ScanImpl { return s.p.impl }

// SetImpl overrides the initial scan implementation (feedback-cache warm
// start). Only meaningful before the first block of a micro stepper.
func (s *BlockStepper) SetImpl(impl exec.ScanImpl) {
	if s.p.eligible {
		s.p.impl = impl
	}
}

// BlockVectors returns how many vectors the next optimization block spans on
// k cores (ReopInterval per core), or 0 when re-optimization is disabled.
func (s *BlockStepper) BlockVectors(k int) int {
	return max(s.p.opt.ReopInterval, 0) * k
}

// AfterBlock runs the policy over one finished morsel block: validate the
// previous reorder against the block's per-vector cost (revert on
// regression), and — unless the block was the query's last — sample the
// merged counters, estimate selectivities, reorder, and in micro mode choose
// the next block's scan implementation. tuples is the number of
// driving-table tuples the block covered. coord is the core the estimation
// runs on (the others idle at the block barrier); engines are the cores
// currently executing the query, each of which pays the recompile of a plan
// change. The returned cycles are the makespan extension of the
// coordination; the caller adds them to the query's clock.
func (s *BlockStepper) AfterBlock(br exec.BlockResult, tuples int, last bool, coord *cpu.CPU, engines []*exec.Engine) (uint64, error) {
	s.p.st.Blocks++
	s.accounted += br.MaxCycles
	s.extra, s.coord, s.engines = 0, coord, engines
	// A block follows the last optimization point, so a pending validation
	// always has a previous cost to compare against.
	changed, err := s.p.step(s, window{
		vectors:    br.Vectors,
		tuples:     tuples,
		counters:   br.Counters,
		cost:       float64(br.MaxCycles) / float64(br.Vectors),
		comparable: true,
		optimize:   s.p.opt.ReopInterval > 0 && !last,
	})
	if err != nil {
		return 0, err
	}
	s.accounted += s.extra
	if changed {
		// The block's coordination is one barrier: its plan changes take
		// effect together, when it ends.
		s.p.st.ConvergedAtCycles = s.accounted
	}
	return s.extra, nil
}

func (s *BlockStepper) clock() (rel, ts uint64) {
	now := s.accounted + s.extra
	return now, now
}

func (s *BlockStepper) charge(instr int) {
	c0 := s.coord.Cycles()
	s.coord.Exec(instr)
	s.extra += s.coord.Cycles() - c0
}

// recompile charges every core running the query and extends the makespan
// by the largest per-core cycle delta.
func (s *BlockStepper) recompile(resetPredictor bool) {
	var most uint64
	for _, e := range s.engines {
		c := e.CPU()
		c0 := c.Cycles()
		recompileCore(c, resetPredictor)
		most = max(most, c.Cycles()-c0)
	}
	s.extra += most
}

func (s *BlockStepper) revertArgs(cost, prevCost, _ float64) []trace.Arg {
	return []trace.Arg{trace.A("cost_per_vec", cost), trace.A("prev_cost_per_vec", prevCost)}
}

// TraceFinal emits the plan-final event on the stepper's decision track (if
// any), stamped with the accounted query clock. Callers invoke it once, when
// the query's last block has been coordinated.
func (s *BlockStepper) TraceFinal() { s.p.traceFinal(s.accounted, true) }

// Stats snapshots the coordination telemetry; FinalOrder is the permutation
// currently in effect (relative to the stepper's base query).
func (s *BlockStepper) Stats() Stats { return s.p.stats() }
