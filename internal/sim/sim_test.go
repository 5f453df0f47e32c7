package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestClockAdvances(t *testing.T) {
	var e Engine
	var times []Time
	e.Schedule(10*Microsecond, func(now Time) { times = append(times, now) })
	e.Schedule(5*Microsecond, func(now Time) { times = append(times, now) })
	e.Schedule(20*Microsecond, func(now Time) { times = append(times, now) })
	e.Run()
	want := []Time{5 * Microsecond, 10 * Microsecond, 20 * Microsecond}
	if len(times) != len(want) {
		t.Fatalf("fired %d events, want %d", len(times), len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, times[i], want[i])
		}
	}
	if e.Now() != 20*Microsecond {
		t.Errorf("final clock %v, want 20us", e.Now())
	}
}

func TestSameInstantFIFOOrder(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(Microsecond, func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("event order[%d] = %d; same-instant events must fire FIFO", i, v)
		}
	}
}

func TestScheduleFromCallback(t *testing.T) {
	var e Engine
	fired := 0
	e.Schedule(1*Microsecond, func(now Time) {
		fired++
		e.Schedule(now+2*Microsecond, func(Time) { fired++ })
	})
	e.Run()
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
	if e.Now() != 3*Microsecond {
		t.Errorf("clock = %v, want 3us", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var e Engine
	e.Schedule(10, func(Time) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("expected panic scheduling before now")
		}
	}()
	e.Schedule(5, func(Time) {})
}

func TestCancel(t *testing.T) {
	var e Engine
	fired := false
	h := e.Schedule(10, func(Time) { fired = true })
	if !h.Cancel() {
		t.Fatal("Cancel returned false for pending event")
	}
	if h.Cancel() {
		t.Error("second Cancel should return false")
	}
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	var e Engine
	h := e.Schedule(10, func(Time) {})
	e.Run()
	// The fired event's slot is recycled by the pooled event below; the
	// stale Handle's sequence number no longer matches, so it cannot
	// cancel it.
	var cb counterCB
	e.ScheduleTag(20, &cb, 0)
	if h.Cancel() {
		t.Error("Cancel after fire should return false")
	}
	e.Run()
	if cb.n != 1 {
		t.Errorf("pooled event after a stale Cancel fired %d times, want 1", cb.n)
	}
}

func TestStaleHandleAfterRecycle(t *testing.T) {
	var e Engine
	h := e.Schedule(10, func(Time) {})
	e.Run()
	// A cancelled event's slot is recycled just like a fired one's.
	hc := e.Schedule(15, func(Time) {})
	if !hc.Cancel() {
		t.Fatal("Cancel returned false for a pending event")
	}
	fired := 0
	later := e.Schedule(20, func(Time) { fired++ })
	if later.rec != h.rec || later.rec != hc.rec {
		t.Fatalf("later event took slot %d, want the recycled slot %d", later.rec, h.rec)
	}
	if h.Cancel() || hc.Cancel() {
		t.Error("a stale Handle cancelled the event that recycled its slot")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d after stale Cancels, want 1", e.Pending())
	}
	e.Run()
	if fired != 1 {
		t.Errorf("recycled-slot event fired %d times, want 1", fired)
	}
	if later.Cancel() {
		t.Error("Cancel after fire should return false")
	}
	var zero Handle
	if zero.Cancel() {
		t.Error("the zero Handle cancelled an event")
	}
	// A value Handle from ScheduleTagHandle cancels the same way.
	var cb counterCB
	v := e.ScheduleTagHandle(30, &cb, 0)
	if v.rec != later.rec {
		t.Fatalf("tag event took slot %d, want the recycled slot %d", v.rec, later.rec)
	}
	if later.Cancel() || !v.Cancel() || v.Cancel() {
		t.Error("value Handle: want stale Cancel false, first Cancel true, second false")
	}
	e.Run()
	if cb.n != 0 {
		t.Errorf("cancelled tag event fired %d times", cb.n)
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	var e Engine
	var order []int
	_ = e.Schedule(1, func(Time) { order = append(order, 1) })
	h2 := e.Schedule(2, func(Time) { order = append(order, 2) })
	_ = e.Schedule(3, func(Time) { order = append(order, 3) })
	if !h2.Cancel() {
		t.Fatal("cancel failed")
	}
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Errorf("order = %v, want [1 3]", order)
	}
}

func TestRunBefore(t *testing.T) {
	var e Engine
	var fired []Time
	for _, at := range []Time{10, 20, 20, 30} {
		e.Schedule(at, func(now Time) { fired = append(fired, now) })
	}
	e.RunBefore(20)
	if len(fired) != 1 || fired[0] != 10 {
		t.Errorf("fired %v before 20, want [10]: an event at exactly t must stay pending", fired)
	}
	if e.Now() != 20 {
		t.Errorf("clock = %v, want 20", e.Now())
	}
	if e.Pending() != 3 {
		t.Errorf("pending = %d, want 3", e.Pending())
	}
	// An event scheduled at the current instant after RunBefore still fires
	// after the ones already pending there.
	e.Schedule(20, func(now Time) { fired = append(fired, -now) })
	e.RunBefore(20)
	if len(fired) != 1 {
		t.Errorf("a second RunBefore(20) fired %v", fired[1:])
	}
	e.RunBefore(100)
	if want := []Time{10, 20, 20, -20, 30}; !slices.Equal(fired, want) {
		t.Errorf("fired %v, want %v", fired, want)
	}
	if e.Now() != 100 || e.Pending() != 0 {
		t.Errorf("after RunBefore(100): now=%v pending=%d", e.Now(), e.Pending())
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic running to a time before now")
		}
	}()
	e.RunBefore(99)
}

func TestFiredCounter(t *testing.T) {
	var e Engine
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i), func(Time) {})
	}
	e.Run()
	if e.Fired() != 5 {
		t.Errorf("Fired = %d, want 5", e.Fired())
	}
}

func TestMonotonicClockProperty(t *testing.T) {
	// Whatever order events are scheduled in, the clock observed by
	// callbacks must be non-decreasing.
	f := func(offsets []uint32) bool {
		var e Engine
		last := Time(-1)
		ok := true
		for _, off := range offsets {
			e.Schedule(Time(off%1000), func(now Time) {
				if now < last {
					ok = false
				}
				last = now
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{90 * Microsecond, "90.00us"},
		{5 * Millisecond, "5.00ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestUnitConversions(t *testing.T) {
	if (90 * Microsecond).Microseconds() != 90 {
		t.Error("Microseconds conversion wrong")
	}
	if (5 * Millisecond).Milliseconds() != 5 {
		t.Error("Milliseconds conversion wrong")
	}
	if (3 * Second).Seconds() != 3 {
		t.Error("Seconds conversion wrong")
	}
}
