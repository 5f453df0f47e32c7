package ftl

import (
	"math/rand"
	"testing"
)

// TestSparseTableMatchesFlat checks the chunked mapping table against the
// flat table it replaced: a slice of maxLPN packed entries, zero meaning
// not placed, with the prefix fallback behind it. Scattered writes and lazy
// preconditioning on a device spanning several chunks must leave Lookup
// equal to the flat oracle for every LPN — in written chunks, in chunks
// never touched, inside and beyond the implicit prefix — and out-of-range
// LPNs must miss without allocating anything.
func TestSparseTableMatchesFlat(t *testing.T) {
	cfg := Config{Dies: 3, PlanesPerDie: 2, BlocksPerPlane: 16, PagesPerBlock: 64, GCThresholdBlocks: 2}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	max := f.maxLPN // 6144 LPNs: 12 chunks
	pre := max / 2
	if err := f.PreconditionPrefix(pre); err != nil {
		t.Fatal(err)
	}
	if f.table != nil {
		t.Fatal("PreconditionPrefix allocated the mapping table")
	}
	flat := make([]uint64, max)
	lookupFlat := func(lpn int64) (PPN, bool) {
		if lpn < 0 || lpn >= max {
			return InvalidPPN, false
		}
		if e := flat[lpn]; e&ppnValidBit != 0 {
			return unpackPPN(e), true
		}
		if lpn < pre {
			return f.coldPPN(lpn), true
		}
		return InvalidPPN, false
	}

	// Writes land only in chunks 1, 4, 5 and 10, leaving the rest
	// untouched. The prefix ends where chunk 6 starts, so chunks 1, 4 and
	// 5 overwrite implicit cold pages, and chunk 10 first preconditions
	// each LPN lazily, as a read of an unmapped LPN does.
	written := map[int64]bool{1: true, 4: true, 5: true, 10: true}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 600; i++ {
		chunks := []int64{1, 4, 5, 10}
		c := chunks[r.Intn(len(chunks))]
		lpn := c*chunkSize + int64(r.Intn(chunkSize))
		if _, ok := f.Lookup(lpn); !ok {
			ppn, err := f.Precondition(lpn)
			if err != nil {
				t.Fatal(err)
			}
			flat[lpn] = packPPN(ppn)
			continue
		}
		ppn, _, err := f.AllocateWrite(lpn, false)
		if err != nil {
			t.Fatal(err)
		}
		flat[lpn] = packPPN(ppn)
	}

	for i, c := range f.table {
		if (c != nil) != written[int64(i)] {
			t.Errorf("chunk %d allocated = %v, want %v", i, c != nil, written[int64(i)])
		}
	}
	for lpn := int64(-2); lpn < max+2; lpn++ {
		got, gotOK := f.Lookup(lpn)
		want, wantOK := lookupFlat(lpn)
		if got != want || gotOK != wantOK {
			t.Fatalf("Lookup(%d) = %+v, %v; flat table gives %+v, %v", lpn, got, gotOK, want, wantOK)
		}
	}
	for _, lpn := range []int64{-1 << 40, max, 1 << 40} {
		if _, ok := f.Lookup(lpn); ok {
			t.Errorf("Lookup(%d) hit outside [0, %d)", lpn, max)
		}
	}
	if want := int((max + chunkMask) / chunkSize); len(f.table) != want {
		t.Errorf("top-level table has %d chunks, want %d", len(f.table), want)
	}
}
