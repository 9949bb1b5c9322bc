package main

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"testing"

	"progopt"
)

// TestPlainReferenceMatchesEngine runs the scan list of a small data set
// through the engine and checks each answer against the plain-Go evaluation,
// then checks that a wrong answer is caught.
func TestPlainReferenceMatchesEngine(t *testing.T) {
	w := &workload{name: "test", rows: 20_000, ordering: progopt.OrderNatural, cfg: progopt.Config{Workers: 1}}
	eng, err := progopt.New(w.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ds, err := eng.GenerateTPCH(w.rows, 7, w.ordering)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := loadColumns(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	if cols.n != ds.Lineitems() {
		t.Fatalf("reference has %d rows, data set %d", cols.n, ds.Lineitems())
	}
	qs := scanQueries(newInputs(ds, cols), rand.New(rand.NewPCG(7, 0)))
	for _, q := range qs[:24] {
		cq, err := compile(eng, ds, q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Exec(cq, progopt.ExecOptions{Mode: q.mode, Progressive: progressive})
		if err != nil {
			t.Fatal(err)
		}
		ref := refAnswer{answer: cols.eval(q.t)}
		got := answerOf(res)
		if !ref.matches(got) {
			t.Errorf("%s %v: engine %+v, reference %+v", q.t.key, q.mode, got, ref.answer)
		}
		got.Qualifying++
		if ref.matches(got) {
			t.Errorf("%s: an off-by-one count passes the check", q.t.key)
		}
	}
}

func TestSameRecordsFindsADifference(t *testing.T) {
	a := []record{{Cycles: 5, Counters: map[string]uint64{"br_mp": 1}}}
	b := []record{{Cycles: 5, Counters: map[string]uint64{"br_mp": 1}}}
	if err := sameRecords(a, b); err != nil {
		t.Errorf("equal records: %v", err)
	}
	b[0].Counters["br_mp"] = 2
	if err := sameRecords(a, b); err == nil {
		t.Error("a counter difference passed the trace guard")
	}
}

// TestSpecNamesTheWorkloads keeps BENCHMARK.json and the workload table in
// step, and every metric name unique.
func TestSpecNamesTheWorkloads(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		Workloads []struct{ Name string } `json:"workloads"`
		spec
	}
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(s.Workloads), len(workloads))
	}
	for _, wl := range s.Workloads {
		if _, err := workloadByName(wl.Name); err != nil {
			t.Error(err)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %q listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}
