package retrymetrics

import (
	"fmt"
	"sort"
	"strings"

	"readretry/internal/mathx"
)

// PageStat identifies one hottest-page table entry in a Summary.
type PageStat struct {
	Block int   `json:"block"`
	Page  int   `json:"page"`  // page index within the block
	Steps int64 `json:"steps"` // retry steps attributed (space-saving estimate)
}

// Summary is the fixed-size digest of a run's retry accounting — the form
// that travels: attached to ssd.Stats for reports, embedded in the sweep
// cache's Measurement, and rendered into the per-cell metrics CSV. All
// fields round-trip exactly through JSON (encoding/json preserves
// float64), so a cached cell renders byte-identical metrics rows to a
// freshly simulated one.
type Summary struct {
	PageReads    int64   `json:"page_reads"`
	RetriedReads int64   `json:"retried_reads"`
	TotalSteps   int64   `json:"total_steps"`
	MaxSteps     int     `json:"max_steps"`
	P99Steps     float64 `json:"p99_steps"`

	// Latency attribution: total resource occupancy of the recorded reads'
	// plans plus scheduler queueing, in microseconds.
	SenseUS    float64 `json:"sense_us"`
	TransferUS float64 `json:"transfer_us"`
	ECCUS      float64 `json:"ecc_us"`
	QueueUS    float64 `json:"queue_us"`

	// HotBlock is the block with the largest retry-step total (lowest index
	// on ties; -1 when no read retried), HotShare its fraction of all retry
	// steps.
	HotBlock      int     `json:"hot_block"`
	HotBlockSteps int64   `json:"hot_block_steps"`
	HotShare      float64 `json:"hot_share"`

	TopPages []PageStat `json:"top_pages,omitempty"`
}

// Summary digests the accumulated accounting. Called once per run (it
// allocates); ordering and tie-breaks are deterministic.
func (m *Metrics) Summary() Summary {
	s := Summary{
		PageReads:    m.pageReads,
		RetriedReads: m.retriedReads,
		TotalSteps:   m.totalSteps,
		MaxSteps:     m.maxSteps,
		SenseUS:      m.senseTotal.Microseconds(),
		TransferUS:   m.xferTotal.Microseconds(),
		ECCUS:        m.eccTotal.Microseconds(),
		QueueUS:      m.queueTotal.Microseconds(),
		HotBlock:     -1,
	}
	device := make([]int64, m.cfg.Buckets)
	for b := 0; b < m.cfg.Blocks; b++ {
		row := m.hist[b*m.cfg.Buckets : (b+1)*m.cfg.Buckets]
		for n, c := range row {
			device[n] += int64(c)
		}
		if m.blockSteps[b] > s.HotBlockSteps {
			s.HotBlock, s.HotBlockSteps = b, m.blockSteps[b]
		}
	}
	s.P99Steps = mathx.PercentileHistogram(device, 99)
	if m.totalSteps > 0 {
		s.HotShare = float64(s.HotBlockSteps) / float64(m.totalSteps)
	}
	for _, e := range m.top {
		if e.page < 0 {
			continue
		}
		s.TopPages = append(s.TopPages, PageStat{
			Block: int(e.page / int64(m.cfg.PagesPerBlock)),
			Page:  int(e.page % int64(m.cfg.PagesPerBlock)),
			Steps: e.steps,
		})
	}
	sort.Slice(s.TopPages, func(i, j int) bool {
		a, b := s.TopPages[i], s.TopPages[j]
		if a.Steps != b.Steps {
			return a.Steps > b.Steps
		}
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		return a.Page < b.Page
	})
	return s
}

// CSVColumns is the metrics CSV's column list, in render order. The sweep
// engine prefixes each row with the cell's axis columns (workload,
// condition, configuration).
func CSVColumns() []string {
	return []string{
		"page_reads", "retried_reads", "total_steps", "max_steps",
		"p99_steps", "sense_us", "transfer_us", "ecc_us", "queue_us",
		"hot_block", "hot_block_steps", "hot_share", "top_pages",
	}
}

// CSVFields renders the summary's columns with fixed formats — the
// byte-identity contract of the metrics CSV. top_pages is encoded
// block:page:steps, semicolon-separated, in the Summary's deterministic
// order.
func (s Summary) CSVFields() []string {
	var top strings.Builder
	for i, p := range s.TopPages {
		if i > 0 {
			top.WriteByte(';')
		}
		fmt.Fprintf(&top, "%d:%d:%d", p.Block, p.Page, p.Steps)
	}
	return []string{
		fmt.Sprintf("%d", s.PageReads),
		fmt.Sprintf("%d", s.RetriedReads),
		fmt.Sprintf("%d", s.TotalSteps),
		fmt.Sprintf("%d", s.MaxSteps),
		fmt.Sprintf("%.3f", s.P99Steps),
		fmt.Sprintf("%.3f", s.SenseUS),
		fmt.Sprintf("%.3f", s.TransferUS),
		fmt.Sprintf("%.3f", s.ECCUS),
		fmt.Sprintf("%.3f", s.QueueUS),
		fmt.Sprintf("%d", s.HotBlock),
		fmt.Sprintf("%d", s.HotBlockSteps),
		fmt.Sprintf("%.4f", s.HotShare),
		top.String(),
	}
}
