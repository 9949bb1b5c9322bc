package progopt

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// The adaptive drivers keep one estimator workspace per query run and reuse
// it every optimization cycle. The estimates they publish (Stats.Samples[i].
// Sels, Stats.LastEstimate) are held by reference in the stats and in trace
// events, so each must own its memory: a later cycle, or a later query on
// the same engine or server, must never change an estimate already
// returned.

func reusePlanA(d *Dataset) *Plan {
	return Scan("lineitem").
		Filter("l_shipdate", CmpLE, int64(d.ShipdateCutoff(0.8))).
		Filter("l_discount", CmpLE, 0.05).
		Filter("l_quantity", CmpLT, 10).
		Sum("l_extendedprice * l_discount")
}

func reusePlanB(d *Dataset) *Plan {
	return Scan("lineitem").
		Filter("l_quantity", CmpLT, 40).
		Filter("l_shipdate", CmpLE, int64(d.ShipdateCutoff(0.3))).
		Filter("l_discount", CmpGE, 0.02).
		Filter("l_extendedprice", CmpLE, 60000.0).
		Sum("l_extendedprice")
}

// estimateSnapshot deep-copies the published estimates of a result.
func estimateSnapshot(st Stats) [][]float64 {
	snap := [][]float64{slices.Clone(st.LastEstimate)}
	for _, s := range st.Samples {
		snap = append(snap, slices.Clone(s.Sels))
	}
	return snap
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func checkOwnEstimates(t *testing.T, label string, st Stats) {
	t.Helper()
	if st.Optimizations < 3 {
		t.Fatalf("%s: %d optimization cycles, want at least 3", label, st.Optimizations)
	}
	var sels [][]float64
	for _, s := range st.Samples {
		if s.Sels != nil {
			sels = append(sels, s.Sels)
		}
	}
	if len(sels) < 3 {
		t.Fatalf("%s: %d estimated samples, want at least 3", label, len(sels))
	}
	for i := range sels {
		for j := i + 1; j < len(sels); j++ {
			if &sels[i][0] == &sels[j][0] {
				t.Errorf("%s: samples %d and %d share estimate memory", label, i, j)
			}
		}
	}
	if last := sels[len(sels)-1]; !sameBits(st.LastEstimate, last) {
		t.Errorf("%s: LastEstimate %v != last sample estimate %v", label, st.LastEstimate, last)
	}
}

func TestEstimatesSurviveWorkspaceReuse(t *testing.T) {
	for _, tc := range []struct {
		workers int
		served  bool
	}{{1, false}, {4, false}, {4, true}} {
		for _, mode := range []Mode{ModeProgressive, ModeMicroAdaptive} {
			label := fmt.Sprintf("workers=%d/served=%v/%s", tc.workers, tc.served, mode)
			t.Run(label, func(t *testing.T) {
				e, err := New(Config{VectorSize: 256, Workers: tc.workers})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				d, err := e.GenerateTPCH(24*1024, 37, OrderRandom)
				if err != nil {
					t.Fatal(err)
				}
				opts := ExecOptions{Mode: mode, Progressive: Progressive{Interval: 2}}
				var srv *Server
				if tc.served {
					if srv, err = NewServer(e, ServerConfig{}); err != nil {
						t.Fatal(err)
					}
					defer srv.Close()
				}
				run := func(p *Plan) ExecResult {
					t.Helper()
					var res ExecResult
					if srv != nil {
						tk, err := srv.Submit(d, p, opts)
						if err != nil {
							t.Fatal(err)
						}
						res, err = tk.Wait()
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					q, err := e.Compile(d, p)
					if err != nil {
						t.Fatal(err)
					}
					if res, err = e.Exec(q, opts); err != nil {
						t.Fatal(err)
					}
					return res
				}

				first := run(reusePlanA(d))
				checkOwnEstimates(t, label+"/first", first.Stats)
				snap := estimateSnapshot(first.Stats)

				second := run(reusePlanB(d))
				checkOwnEstimates(t, label+"/second", second.Stats)
				after := estimateSnapshot(first.Stats)
				for i := range snap {
					if !sameBits(snap[i], after[i]) {
						t.Errorf("estimate %d of the first query changed after the second ran: %v -> %v",
							i, snap[i], after[i])
					}
				}
			})
		}
	}
}
