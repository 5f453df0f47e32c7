// Package ftl implements the flash-translation-layer bookkeeping the SSD
// simulator drives: page-level logical→physical mapping, per-plane write
// allocation with wear-aware free-block selection, valid-page tracking, and
// greedy garbage-collection victim selection.
//
// The package is purely a data structure — it decides *where* data lives
// and *which* block to collect; the simulator (internal/ssd) turns those
// decisions into timed die operations. Keeping the FTL synchronous makes
// its invariants directly testable.
package ftl

import (
	"container/heap"
	"fmt"
)

// PPN is a physical page number: a die-global physical location.
type PPN struct {
	Die   int // global die index across all channels
	Plane int
	Block int // block within the plane
	Page  int // page within the block
}

// InvalidPPN marks an unmapped logical page.
var InvalidPPN = PPN{Die: -1}

// Valid reports whether the PPN refers to a physical location.
func (p PPN) Valid() bool { return p.Die >= 0 }

// Config sizes the FTL.
type Config struct {
	Dies           int // total dies (channels × dies per channel)
	PlanesPerDie   int
	BlocksPerPlane int
	PagesPerBlock  int
	// GCThresholdBlocks triggers collection when a plane's free-block
	// count drops to or below it.
	GCThresholdBlocks int
}

// Packed-PPN field widths used by the mapping table. Generous for any
// realistic device (4096 dies × 64 planes × 16M blocks × 1M pages) while
// fitting one table entry, with its valid bit, in a uint64.
const (
	ppnPageBits  = 20
	ppnBlockBits = 24
	ppnPlaneBits = 6
	ppnDieBits   = 12
	ppnValidBit  = uint64(1) << 63
)

// The mapping table is split into chunks of 1<<chunkBits entries, each
// allocated on its first explicit mapping.
const (
	chunkBits = 9
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// chunk is one fixed-size slice of the mapping table.
type chunk [chunkSize]uint64

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Dies < 1 || c.PlanesPerDie < 1 || c.BlocksPerPlane < 2 || c.PagesPerBlock < 1 {
		return fmt.Errorf("ftl: invalid geometry %+v", c)
	}
	if c.GCThresholdBlocks < 1 || c.GCThresholdBlocks >= c.BlocksPerPlane {
		return fmt.Errorf("ftl: GC threshold %d outside (0, %d)", c.GCThresholdBlocks, c.BlocksPerPlane)
	}
	if c.Dies > 1<<ppnDieBits || c.PlanesPerDie > 1<<ppnPlaneBits ||
		c.BlocksPerPlane > 1<<ppnBlockBits || c.PagesPerBlock > 1<<ppnPageBits {
		return fmt.Errorf("ftl: geometry %+v exceeds packed-PPN field widths", c)
	}
	return nil
}

// blockMeta tracks one physical block.
type blockMeta struct {
	// state is free, open (actively written), or closed.
	state     blockState
	writePtr  int     // next page to program (for open blocks)
	valid     int     // count of valid pages
	lpns      []int64 // reverse map: page → LPN (−1 when invalid/unwritten)
	erases    int     // P/E cycles (wear)
	cold      bool    // preconditioned cold block (never victimized while fully valid)
	collected bool    // currently being garbage-collected
}

type blockState uint8

const (
	blockFree blockState = iota
	blockOpen
	blockClosed
)

// plane is the allocation domain: free blocks, the active (open) block for
// host/GC writes, and the preconditioning cold block.
type plane struct {
	free      freeHeap // min-heap by erase count (wear leveling)
	active    int      // open block for writes, −1 if none
	coldOpen  int      // open block for preconditioned cold fill, −1 if none
	freeCount int
}

func packPPN(p PPN) uint64 {
	return ppnValidBit |
		uint64(p.Die)<<(ppnPageBits+ppnBlockBits+ppnPlaneBits) |
		uint64(p.Plane)<<(ppnPageBits+ppnBlockBits) |
		uint64(p.Block)<<ppnPageBits |
		uint64(p.Page)
}

func unpackPPN(e uint64) PPN {
	return PPN{
		Die:   int(e >> (ppnPageBits + ppnBlockBits + ppnPlaneBits) & (1<<ppnDieBits - 1)),
		Plane: int(e >> (ppnPageBits + ppnBlockBits) & (1<<ppnPlaneBits - 1)),
		Block: int(e >> ppnPageBits & (1<<ppnBlockBits - 1)),
		Page:  int(e & (1<<ppnPageBits - 1)),
	}
}

// FTL is the translation layer state.
type FTL struct {
	cfg Config
	// table is the LPN → PPN map: packed PPN | ppnValidBit, zero meaning
	// not placed. It stores only pages placed explicitly (writes, GC
	// relocations, lazy preconditioning), not the implicit prefix of
	// PreconditionPrefix. It is two-level: a top-level array of
	// ceil(maxLPN / chunkSize) chunk pointers, allocated on the first
	// placement, and each chunk allocated on the first placement inside
	// it. A short run touching a few thousand LPNs then allocates a few
	// chunks rather than a device-sized table, and a lookup is still two
	// indexings and a shift.
	table  []*chunk
	blocks [][]blockMeta // [globalPlane][block]
	planes []plane
	// maxLPN bounds the logical address space to the device's physical page
	// count, which is also the table's length.
	maxLPN int64
	// pre is the implicit cold prefix: an LPN below it with no table entry
	// still lives at coldPPN(lpn), where PreconditionPrefix placed it.
	pre    int64
	mapped int

	hostWrites int64
	gcWrites   int64
}

// New builds an FTL with every block free.
func New(cfg Config) (*FTL, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nPlanes := cfg.Dies * cfg.PlanesPerDie
	f := &FTL{
		cfg:    cfg,
		blocks: make([][]blockMeta, nPlanes),
		planes: make([]plane, nPlanes),
		maxLPN: int64(cfg.Dies) * int64(cfg.PlanesPerDie) *
			int64(cfg.BlocksPerPlane) * int64(cfg.PagesPerBlock),
	}
	for p := range f.blocks {
		f.blocks[p] = make([]blockMeta, cfg.BlocksPerPlane)
		f.planes[p].active = -1
		f.planes[p].coldOpen = -1
		f.planes[p].free = make(freeHeap, cfg.BlocksPerPlane)
		for b := 0; b < cfg.BlocksPerPlane; b++ {
			f.planes[p].free[b] = freeBlock{block: b, erases: 0, seq: b}
		}
		heap.Init(&f.planes[p].free)
		f.planes[p].freeCount = cfg.BlocksPerPlane
	}
	return f, nil
}

// Config returns the FTL's configuration.
func (f *FTL) Config() Config { return f.cfg }

// planeIndex flattens (die, plane).
func (f *FTL) planeIndex(die, pl int) int { return die*f.cfg.PlanesPerDie + pl }

// firstLPN is the lowest LPN striped to plane pi; the plane's others
// follow at a stride of Dies × PlanesPerDie.
func (f *FTL) firstLPN(pi int) int64 {
	return int64(pi/f.cfg.PlanesPerDie + pi%f.cfg.PlanesPerDie*f.cfg.Dies)
}

// StripeOf returns the (die, plane) a logical page is statically allocated
// to: LPNs stripe channel-first across dies, then across planes, the CWDP
// allocation MQSim models.
func (f *FTL) StripeOf(lpn int64) (die, pl int) {
	die = int(lpn % int64(f.cfg.Dies))
	pl = int(lpn / int64(f.cfg.Dies) % int64(f.cfg.PlanesPerDie))
	return die, pl
}

// Lookup returns the physical location of a logical page.
func (f *FTL) Lookup(lpn int64) (PPN, bool) {
	if lpn < 0 || lpn >= f.maxLPN {
		return InvalidPPN, false
	}
	if f.table != nil {
		if c := f.table[lpn>>chunkBits]; c != nil {
			if e := c[lpn&chunkMask]; e&ppnValidBit != 0 {
				return unpackPPN(e), true
			}
		}
	}
	if lpn < f.pre {
		return f.coldPPN(lpn), true
	}
	return InvalidPPN, false
}

// set records an explicit mapping. The caller has range-checked lpn.
func (f *FTL) set(lpn int64, p PPN) {
	if f.table == nil {
		f.table = make([]*chunk, (f.maxLPN+chunkMask)>>chunkBits)
	}
	c := f.table[lpn>>chunkBits]
	if c == nil {
		c = new(chunk)
		f.table[lpn>>chunkBits] = c
	}
	c[lpn&chunkMask] = packPPN(p)
}

// Mapped returns the number of mapped logical pages.
func (f *FTL) Mapped() int { return f.mapped }

// FreeBlocks returns the free-block count of a plane.
func (f *FTL) FreeBlocks(die, pl int) int { return f.planes[f.planeIndex(die, pl)].freeCount }

// popFree removes the least-worn free block of a plane. It returns −1 when
// the plane is exhausted — a catastrophic condition the simulator treats as
// a configuration error (overprovisioning too small for the workload).
func (f *FTL) popFree(pi int) int {
	pl := &f.planes[pi]
	if pl.free.Len() == 0 {
		return -1
	}
	fb := heap.Pop(&pl.free).(freeBlock)
	pl.freeCount--
	f.blocks[pi][fb.block] = blockMeta{
		state:  blockOpen,
		erases: fb.erases,
		lpns:   makeLPNs(f.cfg.PagesPerBlock),
	}
	return fb.block
}

func makeLPNs(n int) []int64 {
	l := make([]int64, n)
	for i := range l {
		l[i] = -1
	}
	return l
}

// Precondition maps a logical page that existed before the simulation
// started (cold data): it is placed in the plane's preconditioning block
// without consuming simulated time. The caller must not precondition an
// already mapped LPN.
func (f *FTL) Precondition(lpn int64) (PPN, error) {
	if lpn < 0 || lpn >= f.maxLPN {
		return InvalidPPN, fmt.Errorf("ftl: LPN %d outside logical space [0, %d)", lpn, f.maxLPN)
	}
	if _, ok := f.Lookup(lpn); ok {
		return InvalidPPN, fmt.Errorf("ftl: LPN %d already mapped", lpn)
	}
	die, pl := f.StripeOf(lpn)
	pi := f.planeIndex(die, pl)
	ppn, err := f.appendTo(pi, &f.planes[pi].coldOpen, die, pl, lpn, true)
	if err != nil {
		return InvalidPPN, err
	}
	f.set(lpn, ppn)
	f.mapped++
	return ppn, nil
}

// PreconditionPrefix maps LPNs [0, n) as cold data in O(blocks), leaving
// exactly the state n sequential Precondition calls on a fresh FTL leave.
// Each plane receives its LPNs in order and pops free blocks 0, 1, 2, … in
// order, so LPN → PPN is the closed form coldPPN and the mappings are kept
// implicit: Lookup computes them, and a cold block's reverse map is built
// the first time appendTo, invalidate or Victim touches the block. The
// FTL must not have mapped anything yet.
func (f *FTL) PreconditionPrefix(n int64) error {
	if f.mapped != 0 {
		return fmt.Errorf("ftl: prefix preconditioning needs a fresh FTL, %d LPNs already mapped", f.mapped)
	}
	if n < 0 || n > f.maxLPN {
		// Each plane holds exactly maxLPN / planes pages, so a prefix past
		// maxLPN overruns the first plane's free blocks.
		return fmt.Errorf("ftl: prefix of %d LPNs outside logical space [0, %d]", n, f.maxLPN)
	}
	stride := int64(f.cfg.Dies * f.cfg.PlanesPerDie)
	ppb := int64(f.cfg.PagesPerBlock)
	for pi := range f.planes {
		var count int64 // the plane's LPNs below n
		if first := f.firstLPN(pi); n > first {
			count = (n - first + stride - 1) / stride
		}
		used := int((count + ppb - 1) / ppb)
		if used == 0 {
			continue
		}
		blocks := f.blocks[pi]
		for b := 0; b < used; b++ {
			blocks[b] = blockMeta{state: blockClosed, writePtr: f.cfg.PagesPerBlock,
				valid: f.cfg.PagesPerBlock, cold: true}
		}
		// The last block stays open even when full: the per-page walk only
		// closes a block on the next append.
		last := &blocks[used-1]
		last.state = blockOpen
		last.writePtr = int(count - int64(used-1)*ppb)
		last.valid = last.writePtr
		pl := &f.planes[pi]
		pl.coldOpen = used - 1
		// (erases, seq) keys are unique, so pop order does not depend on
		// the heap's layout.
		pl.free = pl.free[:0]
		for b := used; b < f.cfg.BlocksPerPlane; b++ {
			pl.free = append(pl.free, freeBlock{block: b, seq: b})
		}
		heap.Init(&pl.free)
		pl.freeCount = len(pl.free)
	}
	f.pre = n
	f.mapped = int(n)
	return nil
}

// coldPPN is where PreconditionPrefix placed lpn: the k-th LPN of its
// stripe's plane lands on page k of the plane's sequentially filled blocks.
func (f *FTL) coldPPN(lpn int64) PPN {
	die, pl := f.StripeOf(lpn)
	k := lpn / int64(f.cfg.Dies*f.cfg.PlanesPerDie)
	ppb := int64(f.cfg.PagesPerBlock)
	return PPN{Die: die, Plane: pl, Block: int(k / ppb), Page: int(k % ppb)}
}

// blockLPNs returns the reverse map of a non-free block, first building it
// from the inverse of coldPPN for a block PreconditionPrefix filled
// implicitly (copy-on-write per block). Until then nothing has touched the
// block, so every written page still holds its prefix LPN.
func (f *FTL) blockLPNs(pi, b int) []int64 {
	meta := &f.blocks[pi][b]
	if meta.lpns == nil {
		meta.lpns = makeLPNs(f.cfg.PagesPerBlock)
		stride := int64(f.cfg.Dies * f.cfg.PlanesPerDie)
		lpn := f.firstLPN(pi) + stride*int64(b)*int64(f.cfg.PagesPerBlock)
		for pg := 0; pg < meta.writePtr; pg++ {
			meta.lpns[pg] = lpn
			lpn += stride
		}
	}
	return meta.lpns
}

// AllocateWrite maps a logical page to a fresh physical page for a host or
// GC write, invalidating any previous location. It returns the new PPN and
// the invalidated old one (old.Valid() reports whether the LPN was mapped).
func (f *FTL) AllocateWrite(lpn int64, gc bool) (PPN, PPN, error) {
	if lpn < 0 || lpn >= f.maxLPN {
		return InvalidPPN, InvalidPPN, fmt.Errorf("ftl: LPN %d outside logical space [0, %d)", lpn, f.maxLPN)
	}
	die, pl := f.StripeOf(lpn)
	pi := f.planeIndex(die, pl)
	old, had := f.Lookup(lpn)
	if had {
		f.invalidate(old)
	}
	ppn, err := f.appendTo(pi, &f.planes[pi].active, die, pl, lpn, false)
	if err != nil {
		return InvalidPPN, InvalidPPN, err
	}
	f.set(lpn, ppn)
	if !had {
		f.mapped++
	}
	if gc {
		f.gcWrites++
	} else {
		f.hostWrites++
	}
	return ppn, old, nil
}

// appendTo appends the LPN to the open block referenced by slot, opening a
// new block when needed.
func (f *FTL) appendTo(pi int, slot *int, die, pl int, lpn int64, cold bool) (PPN, error) {
	if *slot < 0 || f.blocks[pi][*slot].writePtr >= f.cfg.PagesPerBlock {
		if *slot >= 0 {
			f.blocks[pi][*slot].state = blockClosed
		}
		b := f.popFree(pi)
		if b < 0 {
			return InvalidPPN, fmt.Errorf("ftl: plane (die %d, plane %d) out of free blocks", die, pl)
		}
		f.blocks[pi][b].cold = cold
		*slot = b
	}
	meta := &f.blocks[pi][*slot]
	page := meta.writePtr
	f.blockLPNs(pi, *slot)[page] = lpn
	meta.writePtr++
	meta.valid++
	return PPN{Die: die, Plane: pl, Block: *slot, Page: page}, nil
}

// invalidate marks a physical page stale.
func (f *FTL) invalidate(p PPN) {
	pi := f.planeIndex(p.Die, p.Plane)
	meta := &f.blocks[pi][p.Block]
	if meta.state == blockFree {
		return
	}
	lpns := f.blockLPNs(pi, p.Block)
	if lpns[p.Page] < 0 {
		return
	}
	lpns[p.Page] = -1
	meta.valid--
	meta.cold = false // an invalidated block joins the GC candidate pool
}

// NeedGC reports whether a plane's free-block count is at or below the GC
// threshold.
func (f *FTL) NeedGC(die, pl int) bool {
	return f.FreeBlocks(die, pl) <= f.cfg.GCThresholdBlocks
}

// Victim selects the garbage-collection victim for a plane: the closed
// block with the fewest valid pages (greedy), breaking ties toward the
// least-worn block so cleaning work doubles as wear leveling. Open blocks,
// fully-valid cold blocks, and blocks already under collection are skipped.
// It returns the block index, the valid LPNs that must be relocated, and
// whether a victim was found.
func (f *FTL) Victim(die, pl int) (int, []int64, bool) {
	pi := f.planeIndex(die, pl)
	best, bestValid, bestErases := -1, f.cfg.PagesPerBlock+1, 1<<30
	for b := range f.blocks[pi] {
		meta := &f.blocks[pi][b]
		if meta.state != blockClosed || meta.collected || meta.cold {
			continue
		}
		if meta.valid < bestValid || (meta.valid == bestValid && meta.erases < bestErases) {
			best, bestValid, bestErases = b, meta.valid, meta.erases
		}
	}
	if best < 0 {
		return 0, nil, false
	}
	meta := &f.blocks[pi][best]
	meta.collected = true
	var lpns []int64
	for _, lpn := range f.blockLPNs(pi, best) {
		if lpn >= 0 {
			lpns = append(lpns, lpn)
		}
	}
	return best, lpns, true
}

// OnErase returns a collected (or otherwise emptied) block to the free
// pool, incrementing its wear. The caller must have relocated all valid
// pages first; erasing a block with valid pages is a data-loss bug, so it
// panics.
func (f *FTL) OnErase(die, pl, block int) {
	pi := f.planeIndex(die, pl)
	meta := &f.blocks[pi][block]
	if meta.valid > 0 {
		panic(fmt.Sprintf("ftl: erasing block (d%d p%d b%d) with %d valid pages",
			die, pl, block, meta.valid))
	}
	erases := meta.erases + 1
	f.blocks[pi][block] = blockMeta{state: blockFree, erases: erases}
	p := &f.planes[pi]
	heap.Push(&p.free, freeBlock{block: block, erases: erases, seq: block})
	p.freeCount++
}

// BlockValid returns the valid-page count of a block, for tests and stats.
func (f *FTL) BlockValid(die, pl, block int) int {
	return f.blocks[f.planeIndex(die, pl)][block].valid
}

// BlockErases returns a block's erase count.
func (f *FTL) BlockErases(die, pl, block int) int {
	return f.blocks[f.planeIndex(die, pl)][block].erases
}

// WriteCounts returns cumulative host and GC page writes — the inputs to a
// write-amplification calculation.
func (f *FTL) WriteCounts() (host, gc int64) { return f.hostWrites, f.gcWrites }

// WriteAmplification returns (host+gc)/host page writes, or 1 when no host
// writes have happened.
func (f *FTL) WriteAmplification() float64 {
	if f.hostWrites == 0 {
		return 1
	}
	return float64(f.hostWrites+f.gcWrites) / float64(f.hostWrites)
}

// freeHeap is a min-heap of free blocks ordered by erase count, breaking
// ties by block index for determinism.
type freeBlock struct {
	block  int
	erases int
	seq    int
}

type freeHeap []freeBlock

func (h freeHeap) Len() int { return len(h) }
func (h freeHeap) Less(i, j int) bool {
	if h[i].erases != h[j].erases {
		return h[i].erases < h[j].erases
	}
	return h[i].seq < h[j].seq
}
func (h freeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *freeHeap) Push(x any)   { *h = append(*h, x.(freeBlock)) }
func (h *freeHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}
