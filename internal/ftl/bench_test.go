package ftl_test

import (
	"testing"

	"readretry/internal/ftl"
	"readretry/internal/ssd"
)

// BenchmarkPrecondition times preconditioning the Figure 14/15 device
// (ssd.ExperimentConfig: 70% of its pages as cold data) two ways: the
// closed-form prefix ssd.New uses, and the per-page Precondition walk that
// remains the differential tests' oracle. Each iteration starts from a
// fresh FTL.
func BenchmarkPrecondition(b *testing.B) {
	dc := ssd.ExperimentConfig()
	cfg := ftl.Config{
		Dies:              dc.Dies(),
		PlanesPerDie:      dc.Geometry.PlanesPerDie,
		BlocksPerPlane:    dc.Geometry.BlocksPerPlane,
		PagesPerBlock:     dc.Geometry.PagesPerBlock,
		GCThresholdBlocks: dc.GCThresholdBlocks,
	}
	fresh := func(b *testing.B) *ftl.FTL {
		f, err := ftl.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return f
	}
	b.Run("prefix", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := fresh(b).PreconditionPrefix(dc.PreconditionPages); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("walk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := fresh(b)
			for lpn := int64(0); lpn < dc.PreconditionPages; lpn++ {
				if _, err := f.Precondition(lpn); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
