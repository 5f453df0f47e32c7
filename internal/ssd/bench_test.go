package ssd

import (
	"testing"

	"readretry/internal/workload"
)

// BenchmarkNew times building one Figure 14/15 sweep cell's device
// (ExperimentConfig, Baseline scheme): chips, queues and the FTL with its
// preconditioned prefix. Every sweep cell pays this once before its run;
// run with -benchmem to see the per-cell allocation.
func BenchmarkNew(b *testing.B) {
	cfg := ExperimentConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRun times Run alone on a sweep-cell device at 2K P/E and 12
// months (Baseline, ~18 retry steps per read) replaying 20k YCSB-C
// requests at the sweep's load of 1,200 pages/s: the event engine, the
// scheduler, the FTL and the chip read path, without device set-up. Run
// with -benchmem.
func BenchmarkRun(b *testing.B) {
	cfg := ExperimentConfig()
	cfg.PEC, cfg.RetentionMonths = 2000, 12
	spec, err := workload.ByName("YCSB-C")
	if err != nil {
		b.Fatal(err)
	}
	spec.FootprintPages = cfg.TotalPages() * 6 / 10
	spec.AvgIOPS = 1200 / spec.AvgPagesPerRequest()
	recs := workload.NewGenerator(spec, 7).Generate(20_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dev, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := dev.Run(recs); err != nil {
			b.Fatal(err)
		}
	}
}
