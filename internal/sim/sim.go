// Package sim provides the discrete-event simulation engine that drives the
// SSD model: a simulated clock, an event queue with deterministic ordering,
// and helpers for time arithmetic.
//
// The queue is a slice kept sorted with the next event last, so Step pops it
// without a comparison and Schedule inserts by shifting the entries that
// fire no later than the new event: O(depth) per insert, not a heap's
// O(log depth). The trade-off fits the SSD model, whose depth is bounded by
// its in-flight work — each die runs one plan and each channel bus and ECC
// unit has one scheduled occupancy, at most dies + 2 × channels events (24
// for the default device, 6.7 on average during a Figure 14 sweep). An
// engine holding hundreds of thousands of events would pay for every insert
// in proportion; no SSD run does, since it streams host arrivals through
// RunBefore instead of scheduling them.
//
// All simulated time is kept as integer nanoseconds (Time). The paper's
// timing parameters are microseconds-scale, so nanosecond resolution leaves
// ample headroom while keeping arithmetic exact — no floating-point clock
// drift across millions of events.
package sim

import (
	"fmt"
)

// Time is a point in simulated time, in nanoseconds since simulation start.
type Time int64

// Duration units for constructing Time spans.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Microseconds converts t to a float64 microsecond count, for reporting.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds converts t to a float64 millisecond count, for reporting.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds converts t to a float64 second count, for reporting.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.2fms", t.Milliseconds())
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

// MaxTime is the largest representable simulation time.
const MaxTime = Time(1<<63 - 1)

// Event is a scheduled callback. Fire runs at the scheduled time with the
// engine clock already advanced.
type Event func(now Time)

// Callback is the allocation-free alternative to Event: a long-lived object
// (a plan executor, a resource queue) implements Fire once and is scheduled
// with an integer tag identifying which of its pending completions fired.
// Scheduling a Callback allocates no closure, and the event record itself is
// recycled through the engine's free list.
type Callback interface {
	Fire(now Time, tag int)
}

// entry is one pending event in the engine's queue: its time and the index
// of the record holding its payload. It holds no pointers, so shifting
// entries moves plain words with no GC write barriers.
type entry struct {
	at  Time
	rec int32
}

// record is an event's payload slot in the engine's slab: the closure or
// (callback, tag) to fire and the event's sequence number, which Handles
// check. Slots are recycled through an index free list as soon as their
// event fires or is cancelled.
type record struct {
	fn  Event
	cb  Callback
	tag int
	seq uint64
}

// Engine is a single-threaded discrete-event simulator. Events scheduled for
// the same instant fire in scheduling order, making runs fully deterministic.
// The zero value is ready to use.
type Engine struct {
	now Time
	seq uint64
	// q holds the pending events sorted by (at, seq) in descending order,
	// so the next event to fire is last (see the package comment for why a
	// sorted slice, not a heap). seq is implicit in the order: a new event
	// has the largest seq yet, so it goes after every pending event that
	// fires later and before every one at or before its instant.
	q     []entry
	fired uint64
	// recs is the payload slab the queue's entries index, and free lists
	// its unused slots: an SSD run schedules one event per plan operation
	// across millions of reads, and recycling slots keeps that from being
	// one heap allocation each.
	recs []record
	free []int32
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far, for diagnostics.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting to fire.
func (e *Engine) Pending() int { return len(e.q) }

// Schedule enqueues fn to run at time at. Scheduling in the past (before the
// current clock) panics: it always indicates a model bug, and silently
// reordering time would corrupt every latency statistic downstream.
func (e *Engine) Schedule(at Time, fn Event) *Handle {
	r := e.schedule(at)
	e.recs[r].fn = fn
	return &Handle{engine: e, rec: r, seq: e.recs[r].seq}
}

// ScheduleTag enqueues cb.Fire(at, tag) without allocating a closure or a
// Handle; the event's slot is pooled. Ordering semantics are identical to
// Schedule: same-instant events fire in scheduling order.
func (e *Engine) ScheduleTag(at Time, cb Callback, tag int) {
	rec := &e.recs[e.schedule(at)]
	rec.cb, rec.tag = cb, tag
}

// ScheduleTagHandle is ScheduleTag returning a cancellation Handle by value,
// so a cancellable event costs no allocation either.
func (e *Engine) ScheduleTagHandle(at Time, cb Callback, tag int) Handle {
	r := e.schedule(at)
	rec := &e.recs[r]
	rec.cb, rec.tag = cb, tag
	return Handle{engine: e, rec: r, seq: rec.seq}
}

// schedule takes a fresh or recycled slot, stamps it with the next sequence
// number and inserts its entry into the queue; the caller fills in the
// payload. The slot's fn and cb are nil: release clears them.
func (e *Engine) schedule(at Time) int32 {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	var rec int32
	if n := len(e.free); n > 0 {
		rec = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		rec = int32(len(e.recs))
		e.recs = append(e.recs, record{})
	}
	e.recs[rec].seq = e.seq
	e.seq++
	q := append(e.q, entry{})
	i := len(q) - 1
	for i > 0 && q[i-1].at <= at {
		q[i] = q[i-1]
		i--
	}
	q[i] = entry{at: at, rec: rec}
	e.q = q
	return rec
}

// release clears a slot that has left the queue and returns it to the free
// list.
func (e *Engine) release(rec int32) {
	r := &e.recs[rec]
	r.fn, r.cb = nil, nil
	e.free = append(e.free, rec)
}

// Handle allows cancelling a scheduled event. It names the event's slot and
// sequence number: once the event fires or is cancelled the slot may be
// recycled for a later event, but that event's sequence number differs, so
// a stale Handle can never cancel it. The zero Handle cancels nothing.
type Handle struct {
	engine *Engine
	rec    int32
	seq    uint64
}

// Cancel removes the event if it has not fired. It reports whether the event
// was actually cancelled.
func (h *Handle) Cancel() bool {
	e := h.engine
	if e == nil || e.recs[h.rec].seq != h.seq {
		return false
	}
	// The slot still carries h's event; it is pending exactly when one of
	// the queue's entries names it.
	for i, x := range e.q {
		if x.rec == h.rec {
			e.q = append(e.q[:i], e.q[i+1:]...)
			e.release(h.rec)
			return true
		}
	}
	return false
}

// Step fires the next event, advancing the clock to its timestamp. It
// reports false when no events remain.
func (e *Engine) Step() bool {
	n := len(e.q) - 1
	if n < 0 {
		return false
	}
	x := e.q[n]
	e.q = e.q[:n]
	e.now = x.at
	e.fired++
	r := &e.recs[x.rec]
	fn, cb, tag := r.fn, r.cb, r.tag
	e.release(x.rec)
	if cb != nil {
		cb.Fire(e.now, tag)
	} else {
		fn(e.now)
	}
	return true
}

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunBefore fires every event scheduled strictly before t, then advances
// the clock to t; events at exactly t stay pending. Feeding an external
// stream of arrivals as "RunBefore(arrival), then act at arrival" makes each
// arrival precede every event already pending at its instant — the same
// order as scheduling all arrivals before the run starts, without holding
// them in the queue. A t before the current clock panics, as in Schedule.
func (e *Engine) RunBefore(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: running to %v before now %v", t, e.now))
	}
	for len(e.q) > 0 && e.q[len(e.q)-1].at < t {
		e.Step()
	}
	e.now = t
}
