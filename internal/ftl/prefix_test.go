package ftl

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// prefixGeometries have a die count that is not a power of two and more
// than one plane per die, so the stripe arithmetic in coldPPN and its
// inverse cannot pass by aligning with a shift.
var prefixGeometries = []Config{
	{Dies: 3, PlanesPerDie: 2, BlocksPerPlane: 10, PagesPerBlock: 4, GCThresholdBlocks: 2},
	{Dies: 5, PlanesPerDie: 3, BlocksPerPlane: 6, PagesPerBlock: 3, GCThresholdBlocks: 2},
}

// walked is the oracle: n sequential Precondition calls on a fresh FTL.
func walked(t *testing.T, cfg Config, n int64) *FTL {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for lpn := int64(0); lpn < n; lpn++ {
		if _, err := f.Precondition(lpn); err != nil {
			t.Fatalf("Precondition(%d): %v", lpn, err)
		}
	}
	return f
}

func prefixed(t *testing.T, cfg Config, n int64) *FTL {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.PreconditionPrefix(n); err != nil {
		t.Fatalf("PreconditionPrefix(%d): %v", n, err)
	}
	return f
}

// prefixSizes lists every n up to 70% of the device, then every exact
// block boundary (each plane's last cold block full but still open) up to
// the whole device, and the last LPN below it.
func prefixSizes(cfg Config) []int64 {
	block := int64(cfg.Dies * cfg.PlanesPerDie * cfg.PagesPerBlock) // one block per plane
	total := block * int64(cfg.BlocksPerPlane)
	var ns []int64
	for n := int64(0); n <= total*7/10; n++ {
		ns = append(ns, n)
	}
	for n := (total*7/10/block + 1) * block; n <= total; n += block {
		ns = append(ns, n)
	}
	return append(ns, total-1)
}

// sameState fails unless every observable of the two FTLs agrees.
func sameState(t *testing.T, at string, got, want *FTL) {
	t.Helper()
	mapped := 0
	for lpn := int64(0); lpn < want.maxLPN; lpn++ {
		gp, gok := got.Lookup(lpn)
		wp, wok := want.Lookup(lpn)
		if gp != wp || gok != wok {
			t.Fatalf("%s: Lookup(%d) = %+v, %v; walk gives %+v, %v", at, lpn, gp, gok, wp, wok)
		}
		if wok {
			mapped++
		}
	}
	if got.Mapped() != mapped || want.Mapped() != mapped {
		t.Fatalf("%s: Mapped = %d, walk gives %d, Lookup finds %d", at, got.Mapped(), want.Mapped(), mapped)
	}
	cfg := want.Config()
	for die := 0; die < cfg.Dies; die++ {
		for pl := 0; pl < cfg.PlanesPerDie; pl++ {
			if g, w := got.FreeBlocks(die, pl), want.FreeBlocks(die, pl); g != w {
				t.Fatalf("%s: FreeBlocks(d%d p%d) = %d, walk gives %d", at, die, pl, g, w)
			}
			for b := 0; b < cfg.BlocksPerPlane; b++ {
				if g, w := got.BlockValid(die, pl, b), want.BlockValid(die, pl, b); g != w {
					t.Fatalf("%s: BlockValid(d%d p%d b%d) = %d, walk gives %d", at, die, pl, b, g, w)
				}
				if g, w := got.BlockErases(die, pl, b), want.BlockErases(die, pl, b); g != w {
					t.Fatalf("%s: BlockErases(d%d p%d b%d) = %d, walk gives %d", at, die, pl, b, g, w)
				}
			}
		}
	}
}

func sameErr(t *testing.T, at string, got, want error) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: error %v, walk gives %v", at, got, want)
	}
}

// replay drives both FTLs through the same seeded mix of host writes,
// lazy preconditioning and full GC cycles (Victim, relocation, OnErase),
// comparing every result and the whole state after each step. It stops
// at the first plane exhaustion, once both FTLs agree on it.
func replay(t *testing.T, prefix string, got, want *FTL, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	span := want.maxLPN * 3 / 4
	write := func(at string, lpn int64, gc bool) bool {
		gp, gold, gerr := got.AllocateWrite(lpn, gc)
		wp, wold, werr := want.AllocateWrite(lpn, gc)
		sameErr(t, at, gerr, werr)
		if gp != wp || gold != wold {
			t.Fatalf("%s: AllocateWrite(%d) = %+v, %+v; walk gives %+v, %+v", at, lpn, gp, gold, wp, wold)
		}
		return gerr == nil
	}
	for i := 0; i < steps; i++ {
		lpn := rng.Int63n(span)
		die, pl := want.StripeOf(lpn)
		at := fmt.Sprintf("%s, step %d", prefix, i)
		switch op := rng.Intn(10); {
		case op < 2:
			gp, gerr := got.Precondition(lpn)
			wp, werr := want.Precondition(lpn)
			sameErr(t, at, gerr, werr)
			if gp != wp {
				t.Fatalf("%s: Precondition(%d) = %+v, walk gives %+v", at, lpn, gp, wp)
			}
		case op < 8 && !want.NeedGC(die, pl):
			if !write(at, lpn, false) {
				return
			}
		default:
			gb, glpns, gok := got.Victim(die, pl)
			wb, wlpns, wok := want.Victim(die, pl)
			if gb != wb || gok != wok || !reflect.DeepEqual(glpns, wlpns) {
				t.Fatalf("%s: Victim(d%d p%d) = %d, %v, %v; walk gives %d, %v, %v",
					at, die, pl, gb, glpns, gok, wb, wlpns, wok)
			}
			if !wok {
				break
			}
			for _, v := range wlpns {
				if !write(at, v, true) {
					return
				}
			}
			got.OnErase(die, pl, wb)
			want.OnErase(die, pl, wb)
		}
		sameState(t, at, got, want)
	}
}

func TestPreconditionPrefixMatchesWalk(t *testing.T) {
	for gi, cfg := range prefixGeometries {
		for _, n := range prefixSizes(cfg) {
			at := fmt.Sprintf("geometry %d, n=%d", gi, n)
			got, want := prefixed(t, cfg, n), walked(t, cfg, n)
			sameState(t, at, got, want)
			replay(t, at, got, want, n*31+int64(gi), 120)
		}
	}
}

func TestPreconditionPrefixLeavesFullColdBlockOpen(t *testing.T) {
	cfg := prefixGeometries[0]
	stride := int64(cfg.Dies * cfg.PlanesPerDie)
	n := stride * int64(cfg.PagesPerBlock) // exactly one full block per plane
	f := prefixed(t, cfg, n)
	if got := f.FreeBlocks(0, 0); got != cfg.BlocksPerPlane-1 {
		t.Fatalf("FreeBlocks = %d, want %d: the full cold block must stay open, not pop a successor",
			got, cfg.BlocksPerPlane-1)
	}
	// The next cold LPN closes the full block and opens block 1.
	ppn, err := f.Precondition(n)
	if err != nil {
		t.Fatal(err)
	}
	if ppn.Block != 1 || ppn.Page != 0 {
		t.Errorf("Precondition(%d) = %+v, want block 1 page 0", n, ppn)
	}
}

func TestPreconditionPrefixRejects(t *testing.T) {
	cfg := prefixGeometries[0]
	used := func(mapOne func(f *FTL) error) *FTL {
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := mapOne(f); err != nil {
			t.Fatal(err)
		}
		return f
	}
	for name, f := range map[string]*FTL{
		"written":        used(func(f *FTL) error { _, _, err := f.AllocateWrite(7, false); return err }),
		"preconditioned": used(func(f *FTL) error { _, err := f.Precondition(7); return err }),
		"prefixed":       used(func(f *FTL) error { return f.PreconditionPrefix(7) }),
	} {
		if err := f.PreconditionPrefix(20); err == nil {
			t.Errorf("%s FTL: PreconditionPrefix accepted an FTL that already maps LPNs", name)
		}
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// maxLPN+1 needs one block more than plane 0 has free.
	for _, n := range []int64{-1, f.maxLPN + 1} {
		if err := f.PreconditionPrefix(n); err == nil {
			t.Errorf("PreconditionPrefix(%d) accepted a prefix outside [0, %d]", n, f.maxLPN)
		}
	}
	sameState(t, "after rejected prefixes", f, walked(t, cfg, 0))
}
