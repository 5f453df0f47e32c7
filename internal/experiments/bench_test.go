package experiments

import (
	"io"
	"sync"
	"testing"
)

// quickFig14 is one quick-grid Figure 14 result, simulated once per test
// binary so repeated benchmark invocations time only the encoding.
var quickFig14 struct {
	once sync.Once
	res  *Result
	err  error
}

// BenchmarkCSVSink encodes a quick-grid Figure 14 result through the
// streaming CSV sink to io.Discard: the sweep's CSV layer on its own,
// without the simulation that feeds it.
func BenchmarkCSVSink(b *testing.B) {
	cfg := QuickConfig()
	quickFig14.once.Do(func() { quickFig14.res, quickFig14.err = Figure14(cfg) })
	if quickFig14.err != nil {
		b.Fatal(quickFig14.err)
	}
	cells := quickFig14.res.Cells
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink, err := NewCSVSinkFor(cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for idx, c := range cells {
			if err := sink.Cell(c, idx, len(cells)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
