package ssd

import "testing"

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
