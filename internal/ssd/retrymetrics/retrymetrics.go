// Package retrymetrics is the per-physical-address retry accounting layer:
// where device-wide ssd.Stats can only say "reads averaged 1.3 retry steps",
// this package says *which blocks* retried, *which pages* dominate, and where
// each retried read's latency went (sensing vs. bus transfer vs. ECC decode
// vs. queueing). It is the observability counterpart of the paper's PR
// mechanism — retry behaviour is strongly correlated per block, and this
// layer exposes that correlation instead of averaging it away.
//
// The accounting is allocation-free on the read path by construction: every
// structure is a preallocated flat array indexed by (global) block number —
// a per-block fixed-bucket retry-step histogram, per-block step totals, and
// a fixed-K space-saving table for the hottest pages. RecordRead touches
// only those arrays; no maps, no appends, no boxing. The simulator's
// BenchmarkReadPath 0 allocs/op invariant therefore survives with metrics
// enabled, and a regression benchmark in this package pins RecordRead
// itself at 0 allocs/op.
//
// Determinism contract: Metrics is driven solely by the deterministic
// simulation (no clocks, no randomness), all tie-breaks are by lowest
// index, and Summary/CSV rendering uses fixed formats — so two runs of the
// same configuration produce byte-identical metrics output, and the sweep
// engine's metrics CSV diffs clean across repeated runs and parallelism
// settings.
package retrymetrics

import (
	"fmt"
	"math"

	"readretry/internal/sim"
)

// DefaultTopK is the hottest-page table size when Config.TopK is zero.
const DefaultTopK = 8

// Config sizes the accounting arrays. Everything is fixed at construction;
// RecordRead never grows a structure.
type Config struct {
	// Blocks is the device's total physical block count (across all dies);
	// block indices passed to RecordRead must lie in [0, Blocks).
	Blocks int
	// PagesPerBlock packs (block, page) into the hottest-page identity.
	PagesPerBlock int
	// Buckets is the number of retry-step buckets per block — ladder length
	// plus one, so bucket n counts reads that needed exactly n retry steps.
	// Step counts at or above Buckets saturate into the last bucket.
	Buckets int
	// TopK is the hottest-page table size (DefaultTopK when 0).
	TopK int
}

// Validate reports sizing errors.
func (c Config) Validate() error {
	if c.Blocks < 1 || c.PagesPerBlock < 1 || c.Buckets < 1 {
		return fmt.Errorf("retrymetrics: non-positive dimension in %+v", c)
	}
	if c.TopK < 0 {
		return fmt.Errorf("retrymetrics: negative TopK %d", c.TopK)
	}
	return nil
}

// topEntry is one row of the space-saving (Metwally et al.) hottest-page
// table: a page identity and the retry-step weight attributed to it. An
// empty slot has page == -1.
type topEntry struct {
	page  int64
	steps int64
}

// Metrics accumulates per-address retry accounting for one simulation run.
// Not safe for concurrent use — the event-driven simulator is single-
// threaded per device, exactly like ssd.Stats.
type Metrics struct {
	cfg Config

	// hist is the per-block retry-step histogram, blocks × buckets flat:
	// hist[b*Buckets+n] counts the block-b reads that needed n steps.
	hist []uint32
	// blockSteps / blockRetried total each block's retry steps and retried
	// reads — the hottest-block ranking.
	blockSteps   []int64
	blockRetried []int64

	pageReads    int64
	retriedReads int64
	totalSteps   int64
	maxSteps     int

	// Latency attribution: resource-occupancy totals of every recorded
	// read's plan (sense / DMA / ECC) plus its scheduler queueing delay.
	senseTotal, xferTotal, eccTotal, queueTotal sim.Time

	// top is the fixed-K space-saving table over retried pages, weighted by
	// retry steps. Scanned linearly per retried read (K is small).
	top []topEntry
}

// New builds a Metrics sized by cfg. All arrays are allocated here, once.
func New(cfg Config) (*Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.TopK == 0 {
		cfg.TopK = DefaultTopK
	}
	m := &Metrics{
		cfg:          cfg,
		hist:         make([]uint32, cfg.Blocks*cfg.Buckets),
		blockSteps:   make([]int64, cfg.Blocks),
		blockRetried: make([]int64, cfg.Blocks),
		top:          make([]topEntry, cfg.TopK),
	}
	for i := range m.top {
		m.top[i].page = -1
	}
	return m, nil
}

// RecordRead folds one physical page read into the accounting: block and
// page locate the read, steps is its retry-step count (0 = clean read), and
// sense/xfer/ecc/queue attribute its latency. The caller guarantees block
// and page are in range; this is the fast path and does not bounds-check
// beyond what the slice accesses imply. Allocation-free.
func (m *Metrics) RecordRead(block, page, steps int, sense, xfer, ecc, queue sim.Time) {
	m.pageReads++
	m.senseTotal += sense
	m.xferTotal += xfer
	m.eccTotal += ecc
	m.queueTotal += queue

	bucket := steps
	if bucket >= m.cfg.Buckets {
		bucket = m.cfg.Buckets - 1
	}
	if c := &m.hist[block*m.cfg.Buckets+bucket]; *c != math.MaxUint32 {
		*c++
	}
	if steps == 0 {
		return
	}
	m.retriedReads++
	m.totalSteps += int64(steps)
	m.blockSteps[block] += int64(steps)
	m.blockRetried[block]++
	if steps > m.maxSteps {
		m.maxSteps = steps
	}
	m.observePage(int64(block)*int64(m.cfg.PagesPerBlock)+int64(page), int64(steps))
}

// observePage is the space-saving update: an existing entry gains the
// weight; otherwise the minimum-weight entry (lowest index on ties, for
// determinism) is evicted and over-counted by the newcomer's weight.
func (m *Metrics) observePage(page, weight int64) {
	minIdx := 0
	for i := range m.top {
		e := &m.top[i]
		if e.page == page {
			e.steps += weight
			return
		}
		if e.page == -1 {
			e.page = page
			e.steps = weight
			return
		}
		if e.steps < m.top[minIdx].steps {
			minIdx = i
		}
	}
	m.top[minIdx] = topEntry{page: page, steps: m.top[minIdx].steps + weight}
}

// PageReads returns the number of reads recorded.
func (m *Metrics) PageReads() int64 { return m.pageReads }

// RetriedReads returns the number of recorded reads with steps > 0.
func (m *Metrics) RetriedReads() int64 { return m.retriedReads }

// BlockHistogram returns block b's retry-step histogram (bucket n = reads
// needing n steps; last bucket saturates). The slice aliases the internal
// array and must not be modified.
func (m *Metrics) BlockHistogram(b int) []uint32 {
	return m.hist[b*m.cfg.Buckets : (b+1)*m.cfg.Buckets]
}

// BlockSteps returns block b's total retry steps.
func (m *Metrics) BlockSteps(b int) int64 { return m.blockSteps[b] }

// Blocks returns the configured block count.
func (m *Metrics) Blocks() int { return m.cfg.Blocks }
