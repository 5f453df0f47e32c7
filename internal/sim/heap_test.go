package sim

import (
	"testing"

	"readretry/internal/rng"
)

// TestHeapStressOrdering (named for the heap the sorted queue replaced)
// hammers the event queue with random schedule times, interleaved
// cancellations, pooled (ScheduleTag, through both a value and a pointer
// Callback) and Handle-carrying (Schedule) events, and a run that stops at
// several RunBefore instants, and checks every fire lands in strict
// (at, seq) order — the total order the whole simulator's determinism
// rests on.
func TestHeapStressOrdering(t *testing.T) {
	r := rng.New(42)
	var e Engine
	var lastAt Time = -1
	var lastSeq uint64
	fired := 0
	var handles []*Handle

	check := func(now Time, s stamp) {
		if s.at != now {
			t.Fatalf("fired at %v, scheduled for %v", now, s.at)
		}
		if s.at < lastAt || (s.at == lastAt && s.seq <= lastSeq) {
			t.Fatalf("ordering violated: (%v,%d) after (%v,%d)", s.at, s.seq, lastAt, lastSeq)
		}
		lastAt, lastSeq = s.at, s.seq
		fired++
	}

	const n = 5000
	for i := 0; i < n; i++ {
		at := Time(r.Intn(2000)) * Microsecond
		s := stamp{at: at, seq: e.seq}
		switch i % 3 {
		case 0:
			handles = append(handles, e.Schedule(at, func(now Time) { check(now, s) }))
		case 1:
			e.ScheduleTag(at, &stampCB{check: check, s: s}, i)
		default:
			e.ScheduleTag(at, stampCB{check: check, s: s}, i)
		}
	}
	// Cancel a deterministic subset of the handle-carrying events.
	canceled := 0
	for i, h := range handles {
		if i%4 == 0 && h.Cancel() {
			canceled++
		}
	}
	for _, at := range []Time{0, 500 * Microsecond, 500 * Microsecond, 1234 * Microsecond} {
		e.RunBefore(at)
	}
	e.Run()
	if fired != n-canceled {
		t.Fatalf("fired %d events, want %d (%d canceled)", fired, n-canceled, canceled)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events stranded", e.Pending())
	}
}

type stamp struct {
	at  Time
	seq uint64
}

type stampCB struct {
	check func(Time, stamp)
	s     stamp
}

func (c stampCB) Fire(now Time, tag int) { c.check(now, c.s) }

// TestPooledEventsRecycle verifies the free list actually reuses records:
// a schedule/fire loop must settle to zero allocations per event.
func TestPooledEventsRecycle(t *testing.T) {
	var e Engine
	var cb counterCB
	allocs := testing.AllocsPerRun(500, func() {
		e.ScheduleTag(e.Now(), &cb, 0)
		e.Step()
	})
	if allocs > 0 {
		t.Fatalf("pooled ScheduleTag+Step allocates %.2f objects per event, want 0", allocs)
	}
}

type counterCB struct{ n int }

func (c *counterCB) Fire(Time, int) { c.n++ }
