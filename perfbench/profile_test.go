package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct{ fn, file, want string }{
		{"progopt/internal/hw/cache.(*Level).findWay", "progopt/internal/hw/cache/level.go", "hw.cache"},
		{"progopt/internal/exec.(*Parallel).runWave.func1", "progopt/internal/exec/parallel.go", "exec.parallel"},
		{"progopt/internal/exec.(*Engine).RunBlock", "progopt/internal/exec/batch.go", "exec"},
		{"progopt/internal/costmodel.Predict[...]", "progopt/internal/costmodel/branch.go", "costmodel"},
		{"progopt.(*Engine).Exec", "progopt/run.go", "progopt"},
		{"main.closedPass", "progopt/perfbench/measure.go", "bench"},
		{"runtime.mallocgc", "runtime/malloc.go", "runtime.gc"},
		{"internal/runtime/maps.(*Map).getWithKey", "internal/runtime/maps/map.go", "runtime.gc"},
		{"sort.Float64s", "sort/sort.go", "other"},
		{"progopt/internal/experiments.Run", "progopt/internal/experiments/run.go", "other"},
	} {
		if got := bucketOf(tc.fn, tc.file); got != tc.want {
			t.Errorf("bucketOf(%q) = %q, want %q", tc.fn, got, tc.want)
		}
	}
}

//go:noinline
func burn(d time.Duration) float64 {
	x := 0.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

// TestSplitProfile decodes a real CPU profile: the busy function must own
// most samples, and the shares must sum to one.
func TestSplitProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()

	split, err := splitProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if split.Samples < 5 {
		t.Skipf("only %d samples", split.Samples)
	}
	sum := 0.0
	for _, b := range hostBuckets {
		sum += split.Shares[b]
	}
	if math.Abs(sum-1) > 1e-9 || len(split.Shares) != len(hostBuckets) {
		t.Errorf("shares %v sum to %v", split.Shares, sum)
	}

	zr, err := gzip.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	var inBurn, total int64
	for _, s := range p.samples {
		total += s.values[0]
		if fn := p.str(p.funcs[p.locs[s.locs[0]].fn].name); strings.HasSuffix(fn, ".burn") {
			inBurn += s.values[0]
		}
	}
	if total != split.Samples || 2*inBurn < total {
		t.Errorf("burn owns %d of %d samples (split counted %d)", inBurn, total, split.Samples)
	}
}

func TestDecodeProfileRejectsTruncatedInput(t *testing.T) {
	// Field 2, length-delimited, claiming 5 bytes but holding 1.
	if _, err := decodeProfile([]byte{0x12, 0x05, 0x08}); err == nil {
		t.Error("truncated message decoded without error")
	}
}
