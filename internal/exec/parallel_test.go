package exec

import (
	"testing"

	"progopt/internal/hw/cpu"
	"progopt/internal/tpch"
)

func parallelFixture(t *testing.T) (*tpch.Dataset, *Query) {
	t.Helper()
	d := tpch.MustGenerate(tpch.Config{Lineitems: 50000, Seed: 2})
	q, err := Q6(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := MustEngine(cpu.MustNew(cpu.ScaledXeon()), 1024).BindQuery(q); err != nil {
		t.Fatal(err)
	}
	return d, q
}

// TestParallelMatchesSerial: the morsel-driven executor produces bit-
// identical Qualifying and Sum to a serial run for every worker count, and
// because scheduling runs on simulated clocks, repeated runs reproduce the
// cycle counts exactly.
func TestParallelMatchesSerial(t *testing.T) {
	_, q := parallelFixture(t)
	serialEng := MustEngine(cpu.MustNew(cpu.ScaledXeon()), 1024)
	serial, err := serialEng.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		var prevCycles uint64
		for rep := 0; rep < 2; rep++ {
			p, err := NewParallel(cpu.ScaledXeon(), workers, 1024)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Run(q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Qualifying != serial.Qualifying {
				t.Errorf("workers=%d: qualifying %d, serial %d", workers, res.Qualifying, serial.Qualifying)
			}
			if res.Sum != serial.Sum { // bit-identical reduction
				t.Errorf("workers=%d: sum %v, serial %v", workers, res.Sum, serial.Sum)
			}
			if res.Vectors != serial.Vectors {
				t.Errorf("workers=%d: vectors %d, serial %d", workers, res.Vectors, serial.Vectors)
			}
			if rep == 1 && res.Cycles != prevCycles {
				t.Errorf("workers=%d: nondeterministic makespan %d vs %d", workers, res.Cycles, prevCycles)
			}
			prevCycles = res.Cycles
		}
	}
}

// TestParallelSpeedup: the makespan shrinks with added cores on a morsel-
// decomposable scan.
func TestParallelSpeedup(t *testing.T) {
	_, q := parallelFixture(t)
	makespan := func(workers int) uint64 {
		p, err := NewParallel(cpu.ScaledXeon(), workers, 1024)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	one, four := makespan(1), makespan(4)
	if speedup := float64(one) / float64(four); speedup < 2.5 {
		t.Errorf("4-core speedup %.2f, want >= 2.5 (1 core: %d cycles, 4 cores: %d)", speedup, one, four)
	}
}

// TestParallelLoadBalance: the simulated-clock scheduler keeps per-core work
// within a morsel of each other.
func TestParallelLoadBalance(t *testing.T) {
	_, q := parallelFixture(t)
	p, err := NewParallel(cpu.ScaledXeon(), 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	br, err := p.RunBlock(q, 0, p.NumVectors(q), ImplBranching, nil)
	if err != nil {
		t.Fatal(err)
	}
	var min uint64 = ^uint64(0)
	for _, c := range br.WorkerCycles {
		if c < min {
			min = c
		}
	}
	if float64(br.MaxCycles) > 1.25*float64(min) {
		t.Errorf("imbalanced workers: %v", br.WorkerCycles)
	}
}

// TestParallelBlockValidation pins RunBlock's range checking.
func TestParallelBlockValidation(t *testing.T) {
	_, q := parallelFixture(t)
	p, err := NewParallel(cpu.ScaledXeon(), 2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	nv := p.NumVectors(q)
	if _, err := p.RunBlock(q, -1, nv, ImplBranching, nil); err == nil {
		t.Error("negative block start accepted")
	}
	if _, err := p.RunBlock(q, 0, nv+1, ImplBranching, nil); err == nil {
		t.Error("block beyond table accepted")
	}
	if _, err := p.RunBlock(q, 3, 2, ImplBranching, nil); err == nil {
		t.Error("inverted block accepted")
	}
	if _, err := NewParallel(cpu.ScaledXeon(), 0, 1024); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := NewParallel(cpu.ScaledXeon(), 2, 0); err == nil {
		t.Error("zero vector size accepted")
	}
}
