package ssd

import (
	"testing"

	"readretry/internal/core"
	"readretry/internal/workload"
)

// TestSweepCellRunAllocs pins the garbage a Figure 14 sweep cell's Run
// produces under PnAR²: the read-only YCSB-C cell at 2K P/E and 12 months
// that BenchmarkSweepCell times, and a write-heavy stg_0 cell at 1K P/E and
// 3 months that drives the host write path (program phases and
// suspensions; 2,500 requests are too few to start garbage collection).
// Transactions, plan executors, event slots and queue arrays are all
// recycled, so what remains is the request slab, the read-sample slice,
// and per-block and per-chunk state first touched during the run: about
// 270 objects for YCSB-C, and about 1,040 for stg_0, whose 3,240 page
// writes touch a few hundred cold blocks' reverse maps and table chunks.
// Each budget is about twice that and under one object per page, so any
// per-read or per-page allocation creeping back fails it.
func TestSweepCellRunAllocs(t *testing.T) {
	cases := []struct {
		workload string
		pec      int
		months   float64
		budget   float64
	}{
		{"YCSB-C", 2000, 12, 600},
		{"stg_0", 1000, 3, 2000},
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			cfg := ExperimentConfig()
			cfg.PEC, cfg.RetentionMonths = c.pec, c.months
			cfg.Scheme = core.PnAR2
			spec, err := workload.ByName(c.workload)
			if err != nil {
				t.Fatal(err)
			}
			spec.FootprintPages = cfg.TotalPages() * 6 / 10
			spec.AvgIOPS = 1200 / spec.AvgPagesPerRequest()
			recs := workload.NewGenerator(spec, 7).Generate(2500)

			const runs = 3
			devs := make([]*SSD, runs+1) // AllocsPerRun adds one warm-up call
			for i := range devs {
				if devs[i], err = New(cfg); err != nil {
					t.Fatal(err)
				}
			}
			next := 0
			var st *Stats
			allocs := testing.AllocsPerRun(runs, func() {
				dev := devs[next]
				next++
				if st, err = dev.Run(recs); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > c.budget {
				t.Errorf("Run allocates %.0f objects per cell (%d page writes), budget %.0f",
					allocs, st.PageWrites, c.budget)
			}
		})
	}
}

// TestFIFOReusesArray checks the queue keeps FIFO order through its reset
// and compaction paths, and that a queue cycling at a bounded depth keeps a
// bounded backing array instead of growing with every item it has held.
func TestFIFOReusesArray(t *testing.T) {
	var q fifo[int]
	in, out := 0, 0
	// Depth oscillates between 0 and 9 so both the reset (empty) and the
	// compaction (head past half) paths run.
	for round := 0; round < 5000; round++ {
		for i := 0; i < round%8; i++ {
			q.push(in)
			in++
		}
		for q.len() > round%3 {
			if got := q.peek(); got != out {
				t.Fatalf("peek = %d, want %d", got, out)
			}
			if got := q.pop(); got != out {
				t.Fatalf("pop = %d, want %d", got, out)
			}
			out++
		}
	}
	if q.len() != in-out {
		t.Fatalf("len = %d, want %d", q.len(), in-out)
	}
	if c := cap(q.items); c > 32 {
		t.Errorf("backing array grew to %d slots after %d items at depth ≤ 9", c, in)
	}
}
