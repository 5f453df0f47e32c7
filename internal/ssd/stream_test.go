package ssd

import (
	"cmp"
	"reflect"
	"slices"
	"strings"
	"testing"

	"readretry/internal/core"
	"readretry/internal/rng"
	"readretry/internal/sim"
	"readretry/internal/trace"
	"readretry/internal/workload"
)

// runPreloaded replays recs the way Run did before arrivals were streamed:
// one engine event per record, all scheduled before the run starts, so the
// heap orders them by (arrival, trace index) ahead of every event the run
// schedules. It is the oracle for TestStreamedArrivalsMatchPreload.
func runPreloaded(s *SSD, recs []trace.Record) (*Stats, error) {
	for i := range recs {
		req := newRequest(&recs[i])
		s.eng.Schedule(req.arrival, func(now sim.Time) { s.submit(&req, now) })
	}
	s.eng.Run()
	return s.finish()
}

// streamTestConfig is a small aged device running PnAR2 with PSO and the
// per-block retry metrics on, so the compared Stats carry as much state as
// the simulator keeps.
func streamTestConfig() Config {
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 1000, 3
	cfg.Scheme = core.PnAR2
	cfg.UsePSO = true
	cfg.RetryMetrics = true
	return cfg
}

// streamTestTrace builds a sorted, write-heavy mixed trace with the two
// kinds of ties the arrival order must get right. Every 9th record repeats
// its predecessor's arrival time. Arrivals are cut to whole microseconds,
// the grid the default operation timings lie on, so under load many land
// on the instant a die, channel or decoder finishes. And at each anchor
// index k record k is moved (with every later record shifted by the same
// amount) onto the instant the run of recs[:k] drains: events before that
// instant do not depend on records k onward, so in the full run record k
// arrives exactly when a completion is due.
func streamTestTrace(t *testing.T, cfg Config) []trace.Record {
	t.Helper()
	spec, err := workload.ByName("stg_0")
	if err != nil {
		t.Fatal(err)
	}
	spec.FootprintPages = cfg.TotalPages() * 6 / 10
	spec.AvgIOPS = 3000
	recs := workload.NewGenerator(spec, 7).Generate(3000)
	for i := range recs {
		recs[i].Arrival -= recs[i].Arrival % sim.Microsecond
	}
	for i := 9; i < len(recs); i += 9 {
		recs[i].Arrival = recs[i-1].Arrival
	}
	for _, k := range []int{700, 1500, 2300} {
		dev, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := dev.Run(recs[:k])
		if err != nil {
			t.Fatal(err)
		}
		shift := st.SimEnd - recs[k].Arrival
		for i := k; i < len(recs); i++ {
			recs[i].Arrival += shift
		}
	}
	return recs
}

// TestStreamedArrivalsMatchPreload checks that streaming arrivals through
// RunBefore leaves every statistic exactly where scheduling all arrivals up
// front did, on a sorted trace and on a shuffled copy (which Run stably
// sorts, as the preloaded heap's sequence numbers did).
func TestStreamedArrivalsMatchPreload(t *testing.T) {
	cfg := streamTestConfig()
	sorted := streamTestTrace(t, cfg)
	if !slices.IsSortedFunc(sorted, func(a, b trace.Record) int { return cmp.Compare(a.Arrival, b.Arrival) }) {
		t.Fatal("test trace should be sorted by arrival")
	}
	shuffled := slices.Clone(sorted)
	src := rng.New(3)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	for _, tc := range []struct {
		name string
		recs []trace.Record
	}{{"sorted", sorted}, {"shuffled", shuffled}} {
		t.Run(tc.name, func(t *testing.T) {
			oracle, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := runPreloaded(oracle, tc.recs)
			if err != nil {
				t.Fatal(err)
			}
			if want.GCJobs == 0 || want.Suspensions == 0 {
				t.Fatalf("trace too light to exercise GC and suspension: %d GC jobs, %d suspensions",
					want.GCJobs, want.Suspensions)
			}
			dev, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dev.Run(tc.recs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("streamed arrivals diverge from the preloaded run:\n got  %+v\n want %+v", *got, *want)
			}
		})
	}
}

// TestRunRejectsNegativeArrival checks that a record before time zero is
// an error naming it rather than a panic inside the event engine — the
// state an MSR CSV whose first line is not its earliest rebases into.
func TestRunRejectsNegativeArrival(t *testing.T) {
	csv := "1000,host,0,Read,0,4096,0\n" +
		"1200,host,0,Write,16384,4096,0\n" +
		"900,host,0,Read,32768,4096,0\n"
	recs, err := trace.NewReader(strings.NewReader(csv)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	dev, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = dev.Run(recs)
	if err == nil || !strings.Contains(err.Error(), "record 2") {
		t.Fatalf("Run on a trace with a negative arrival: err = %v, want an error naming record 2", err)
	}
	if dev.stats.Submitted != 0 {
		t.Errorf("%d requests submitted before the bad record was rejected", dev.stats.Submitted)
	}
}
