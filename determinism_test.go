package progopt

import (
	"fmt"
	"runtime"
	"testing"
)

// The host-parallel scheduler executes simulated cores on real goroutines,
// so the determinism contract gets its own matrix: for a fixed (Workers,
// mode) cell, results, cycles, optimizer stats, and every PMU counter must
// be bit-identical whether the host runs the wave on one OS thread or four,
// and whether the batch kernels run fused or per-operator. Fused vs unfused
// is the oracle relation of the kernel fusion; GOMAXPROCS 1 vs 4 is the
// oracle relation of the host pool (at GOMAXPROCS 1 the scheduler takes the
// serial inline path, so matching it proves the pool introduces no
// scheduling-order dependence). Run with -race to also check the pool for
// data races while it reproduces the reference bit patterns.

// detRun executes the three-predicate aggregate plan on a fresh engine in
// the given configuration.
func detRun(t *testing.T, workers int, mode Mode, noFuse bool) ExecResult {
	t.Helper()
	e, err := New(Config{VectorSize: 1024, Workers: workers, NoFuse: noFuse})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d, err := e.GenerateTPCH(24*1024, 37, OrderRandom)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(d, Scan("lineitem").
		Filter("l_shipdate", CmpLE, int64(d.ShipdateCutoff(0.8))).
		Filter("l_discount", CmpLE, 0.05).
		Filter("l_quantity", CmpLT, 10).
		Sum("l_extendedprice * l_discount"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Exec(q, ExecOptions{Mode: mode, Progressive: Progressive{Interval: 5}})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDeterminismMatrix(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		for _, mode := range []Mode{ModeFixed, ModeProgressive, ModeMicroAdaptive} {
			// Reference: serial host (inline wave path), fused kernels.
			prev := runtime.GOMAXPROCS(1)
			ref := detRun(t, workers, mode, false)
			runtime.GOMAXPROCS(prev)
			if ref.Qualifying == 0 {
				t.Fatalf("workers=%d/%s: reference selected nothing", workers, mode)
			}
			for _, gmp := range []int{1, 4} {
				for _, noFuse := range []bool{false, true} {
					name := fmt.Sprintf("workers=%d/%s/gomaxprocs=%d/nofuse=%v", workers, mode, gmp, noFuse)
					t.Run(name, func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gmp))
						got := detRun(t, workers, mode, noFuse)
						sameResult(t, name, ref.Result, got.Result)
						sameStats(t, name, ref.Stats, got.Stats)
						if ref.Impl != got.Impl {
							t.Errorf("impl stats diverge: ref %+v got %+v", ref.Impl, got.Impl)
						}
					})
				}
			}
		}
	}
}

// detServe runs the same plan through a workload server (its own core pool,
// block-granular scheduling) in the given configuration.
func detServe(t *testing.T, workers int, noFuse bool) ExecResult {
	t.Helper()
	e, err := New(Config{VectorSize: 1024, Workers: workers, NoFuse: noFuse})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d, err := e.GenerateTPCH(24*1024, 37, OrderRandom)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(e, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tk, err := srv.Submit(d, Scan("lineitem").
		Filter("l_shipdate", CmpLE, int64(d.ShipdateCutoff(0.8))).
		Filter("l_discount", CmpLE, 0.05).
		Filter("l_quantity", CmpLT, 10).
		Sum("l_extendedprice * l_discount"),
		ExecOptions{Mode: ModeProgressive, Progressive: Progressive{Interval: 5}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDeterminismMatrixServed extends the matrix to the served path: the
// server's pool must also be indifferent to host parallelism and fusion.
func TestDeterminismMatrixServed(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		prev := runtime.GOMAXPROCS(1)
		ref := detServe(t, workers, false)
		runtime.GOMAXPROCS(prev)
		for _, gmp := range []int{1, 4} {
			for _, noFuse := range []bool{false, true} {
				name := fmt.Sprintf("workers=%d/gomaxprocs=%d/nofuse=%v", workers, gmp, noFuse)
				t.Run(name, func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gmp))
					got := detServe(t, workers, noFuse)
					sameResult(t, name, ref.Result, got.Result)
					sameStats(t, name, ref.Stats, got.Stats)
				})
			}
		}
	}
}
