package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"readretry/internal/sim.(*Engine).Run":                      "sim",
		"readretry/internal/ssd.(*SSD).dispatch":                    "ssd",
		"readretry/internal/ssd/retrymetrics.(*Metrics).RecordRead": "ssd",
		"readretry/internal/vth.(*ConditionProfile).Read":           "vth",
		"readretry/internal/mathx.(*Running).Add":                   "other",
		"runtime.mallocgc":                                          "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                   "runtime",
		"sort.Float64s": "other",
		"main.runCell":  "other",
		"":              "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSampleLayer(t *testing.T) {
	p := &profile{
		strs: []string{"", "math.archExp", "readretry/internal/rng.zeta",
			"readretry/internal/workload.NewGenerator", "runtime.mallocgc",
			"readretry/internal/ssd.New", "runtime.goexit", "main.runCell"},
		funcName: map[uint64]int64{1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6, 7: 7},
		// Location 8 holds an inlined call: rng.zeta inlined into
		// workload.NewGenerator, innermost first.
		locFuncs: map[uint64][]uint64{1: {1}, 2: {2}, 3: {3}, 4: {4}, 5: {5}, 6: {6}, 7: {7}, 8: {2, 3}},
	}
	for _, tc := range []struct {
		stack []uint64
		want  string
	}{
		{[]uint64{1, 2, 3, 6}, "workload"}, // math and rng count toward their caller
		{[]uint64{1, 8, 6}, "workload"},
		{[]uint64{4, 5, 6}, "runtime"}, // allocation stays with the runtime
		{[]uint64{1, 2, 7, 6}, "other"},
		{[]uint64{5, 4}, "ssd"},
		{nil, "other"},
	} {
		if got := p.sampleLayer(tc.stack); got != tc.want {
			t.Errorf("sampleLayer(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if v, label := tail(xs); v != 90 || label != "p90" {
		t.Errorf("tail of 1..100 = %v %s, want 90 p90", v, label)
	}
	if v, label := tail(xs[:99]); v != 100 || label != "max" {
		t.Errorf("tail of 99 samples = %v %s, want the maximum", v, label)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

//go:noinline
func spin(d time.Duration) float64 {
	x := 0.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

// TestCPUSharesDecodesRuntimeProfile folds a real runtime/pprof profile.
func TestCPUSharesDecodesRuntimeProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shares, samples, err := cpuShares(path)
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("the profiler took no samples")
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if shares["other"] < 0.5 {
		t.Errorf("spin runs in package main, but other has only %.2f of %d samples", shares["other"], samples)
	}
}

// TestCellPassMatchesRunSweep pins the harness's own cell replay to the
// sweep engine: on a small grid, two workers with tracing on must produce
// RunSweep's CSV byte for byte.
func TestCellPassMatchesRunSweep(t *testing.T) {
	def, _ := workloadByName("write-gc")
	b := &bench{def: def, seed: 3, workers: 2}
	cfg := def.grid(b.seed)
	cfg.Requests = 300
	traces, _, err := b.setup(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := b.sweepPass(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	got, err := b.cellPass(cfg, traces, 2, tr)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.csv) != string(want.csv) {
		t.Errorf("cell replay CSV\n%s\ndiffers from RunSweep\n%s", got.csv, want.csv)
	}
	if n := len(tr.named("ssd.run")); n != len(got.cells) {
		t.Errorf("%d ssd.run spans for %d cells", n, len(got.cells))
	}
	// 300 requests never drain the free pool, so write-gc's own check
	// must flag every cell, and nothing else may fail.
	if probs := b.checkPass(got); len(probs) != len(got.cells) {
		t.Errorf("checks on a grid too short to collect: %v, want one GC problem per cell", probs)
	}
}
