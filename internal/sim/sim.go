// Package sim provides the discrete-event simulation engine that drives the
// SSD model: a simulated clock, an event heap with deterministic ordering,
// and helpers for time arithmetic.
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

// entry is one pending event's position in the heap: its (at, seq) sort
// key and the index of the record holding its payload. It holds no
// pointers, so sifting moves plain words — no GC write barriers, and the
// comparator never dereferences a record.
type entry struct {
	at  Time
	seq uint64 // insertion order breaks ties deterministically
	rec int32
}

// record is an event's payload slot in the engine's slab: the closure or
// (callback, tag) to fire and the event's current heap index (-1 when the
// slot is free). Slots are recycled through an index free list as soon as
// their event fires or is cancelled.
type record struct {
	fn  Event
	cb  Callback
	tag int
	pos int32
}

// heapArity is the fan-out of the hand-rolled min-heap. The comparator is a
// strict total order over (at, seq) — seq is unique — so events pop in
// exactly (at, seq) order no matter how the heap arranges itself
// internally: determinism does not depend on the arity or sift details.
// Hand-rolling (instead of container/heap) removes the per-comparison
// interface calls, and the wider fan-out roughly halves the sift depth.
const heapArity = 4

func entryLess(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// place stores x at heap index i and records the index in x's slot.
func (e *Engine) place(i int, x entry) {
	e.heap[i] = x
	e.recs[x.rec].pos = int32(i)
}

func (e *Engine) push(x entry) {
	e.heap = append(e.heap, x)
	e.siftUp(len(e.heap)-1, x)
}

// removeAt deletes the entry at heap index i (the top for Step, anywhere
// for Cancel) and marks its slot as out of the heap.
func (e *Engine) removeAt(i int) entry {
	x := e.heap[i]
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if i < n {
		e.siftDown(i, last)
		if e.heap[i] == last {
			e.siftUp(i, last)
		}
	}
	e.recs[x.rec].pos = -1
	return x
}

// siftUp moves x, destined for index i, toward the root.
func (e *Engine) siftUp(i int, x entry) {
	for i > 0 {
		parent := (i - 1) / heapArity
		p := e.heap[parent]
		if !entryLess(x, p) {
			break
		}
		e.place(i, p)
		i = parent
	}
	e.place(i, x)
}

// siftDown moves x, destined for index i, toward the leaves.
func (e *Engine) siftDown(i int, x entry) {
	h := e.heap
	n := len(h)
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		min := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if entryLess(h[c], h[min]) {
				min = c
			}
		}
		if !entryLess(h[min], x) {
			break
		}
		e.place(i, h[min])
		i = min
	}
	e.place(i, x)
}

// Engine is a single-threaded discrete-event simulator. Events scheduled for
// the same instant fire in scheduling order, making runs fully deterministic.
// The zero value is ready to use.
type Engine struct {
	now   Time
	seq   uint64
	heap  []entry
	fired uint64
	// recs is the payload slab the heap's entries index, and free lists
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
func (e *Engine) Pending() int { return len(e.heap) }

// Schedule enqueues fn to run at time at. Scheduling in the past (before the
// current clock) panics: it always indicates a model bug, and silently
// reordering time would corrupt every latency statistic downstream.
func (e *Engine) Schedule(at Time, fn Event) *Handle {
	h := e.schedule(at, record{fn: fn})
	return &h
}

// ScheduleTag enqueues cb.Fire(at, tag) without allocating a closure or a
// Handle; the event's slot is pooled. Ordering semantics are identical to
// Schedule: same-instant events fire in scheduling order.
func (e *Engine) ScheduleTag(at Time, cb Callback, tag int) {
	e.schedule(at, record{cb: cb, tag: tag})
}

// ScheduleTagHandle is ScheduleTag returning a cancellation Handle by value,
// so a cancellable event costs no allocation either.
func (e *Engine) ScheduleTagHandle(at Time, cb Callback, tag int) Handle {
	return e.schedule(at, record{cb: cb, tag: tag})
}

// schedule stores r in a fresh or recycled slot and pushes its entry,
// stamped with the next sequence number.
func (e *Engine) schedule(at Time, r record) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	var rec int32
	if n := len(e.free); n > 0 {
		rec = e.free[n-1]
		e.free = e.free[:n-1]
		e.recs[rec] = r
	} else {
		rec = int32(len(e.recs))
		e.recs = append(e.recs, r)
	}
	x := entry{at: at, seq: e.seq, rec: rec}
	e.seq++
	e.push(x)
	return Handle{engine: e, rec: rec, seq: x.seq}
}

// release clears a slot that has left the heap and returns it to the free
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
	if e == nil {
		return false
	}
	pos := e.recs[h.rec].pos
	if pos < 0 || e.heap[pos].seq != h.seq {
		return false
	}
	e.removeAt(int(pos))
	e.release(h.rec)
	return true
}

// Step fires the next event, advancing the clock to its timestamp. It
// reports false when no events remain.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	x := e.removeAt(0)
	e.now = x.at
	e.fired++
	r := e.recs[x.rec]
	e.release(x.rec)
	if r.cb != nil {
		r.cb.Fire(e.now, r.tag)
	} else {
		r.fn(e.now)
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
// them in the heap. A t before the current clock panics, as in Schedule.
func (e *Engine) RunBefore(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: running to %v before now %v", t, e.now))
	}
	for len(e.heap) > 0 && e.heap[0].at < t {
		e.Step()
	}
	e.now = t
}
