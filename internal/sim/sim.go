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

type scheduled struct {
	at  Time
	seq uint64 // insertion order breaks ties deterministically
	fn  Event
	cb  Callback
	tag int
	idx int
}

// eventHeap is a hand-rolled 4-ary min-heap ordered by (at, seq). The
// comparator is a strict total order (seq is unique), so events pop in
// exactly (at, seq) order no matter how the heap arranges itself internally
// — determinism does not depend on the arity or sift details. Hand-rolling
// (instead of container/heap) removes the per-comparison interface calls,
// and the wider fan-out roughly halves the sift depth; together the heap
// was the single hottest component of a simulation run.
type eventHeap []*scheduled

const heapArity = 4

func eventLess(a, b *scheduled) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(s *scheduled) {
	s.idx = len(*h)
	*h = append(*h, s)
	h.siftUp(s.idx)
}

func (h *eventHeap) pop() *scheduled {
	old := *h
	s := old[0]
	n := len(old) - 1
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		last.idx = 0
		old[0] = last
		h.siftDown(0)
	}
	s.idx = -1
	return s
}

// remove deletes the event at index i (the Cancel path).
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	s := old[i]
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if i < n {
		last.idx = i
		old[i] = last
		h.siftDown(i)
		h.siftUp(last.idx)
	}
	s.idx = -1
}

func (h eventHeap) siftUp(i int) {
	s := h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		p := h[parent]
		if !eventLess(s, p) {
			break
		}
		h[i] = p
		p.idx = i
		i = parent
	}
	h[i] = s
	s.idx = i
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	s := h[i]
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
			if eventLess(h[c], h[min]) {
				min = c
			}
		}
		if !eventLess(h[min], s) {
			break
		}
		h[i] = h[min]
		h[i].idx = i
		i = min
	}
	h[i] = s
	s.idx = i
}

// Engine is a single-threaded discrete-event simulator. Events scheduled for
// the same instant fire in scheduling order, making runs fully deterministic.
// The zero value is ready to use.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
	fired  uint64
	// free recycles fired pooled events: an SSD run schedules one event per
	// plan operation across millions of reads, and the free list keeps that
	// from being one heap allocation each.
	free []*scheduled
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far, for diagnostics.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting to fire.
func (e *Engine) Pending() int { return len(e.events) }

// Schedule enqueues fn to run at time at. Scheduling in the past (before the
// current clock) panics: it always indicates a model bug, and silently
// reordering time would corrupt every latency statistic downstream.
func (e *Engine) Schedule(at Time, fn Event) *Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	s := e.get(at)
	s.fn = fn
	e.events.push(s)
	return &Handle{engine: e, ev: s}
}

// ScheduleTag enqueues cb.Fire(at, tag) without allocating a closure or a
// Handle; the event record is pooled. Ordering semantics are identical to
// Schedule: same-instant events fire in scheduling order.
func (e *Engine) ScheduleTag(at Time, cb Callback, tag int) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	s := e.get(at)
	s.cb = cb
	s.tag = tag
	e.events.push(s)
}

// get returns a fresh or recycled event record stamped with the next
// sequence number.
func (e *Engine) get(at Time) *scheduled {
	var s *scheduled
	if n := len(e.free); n > 0 {
		s = e.free[n-1]
		e.free = e.free[:n-1]
		*s = scheduled{}
	} else {
		s = &scheduled{}
	}
	s.at = at
	s.seq = e.seq
	e.seq++
	return s
}

// Handle allows cancelling a scheduled event.
type Handle struct {
	engine *Engine
	ev     *scheduled
}

// Cancel removes the event if it has not fired. It reports whether the event
// was actually cancelled.
func (h *Handle) Cancel() bool {
	if h.ev == nil || h.ev.idx < 0 || h.ev.idx >= len(h.engine.events) ||
		h.engine.events[h.ev.idx] != h.ev {
		return false
	}
	h.engine.events.remove(h.ev.idx)
	h.ev.idx = -1
	return true
}

// Step fires the next event, advancing the clock to its timestamp. It
// reports false when no events remain.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	s := e.events.pop()
	e.now = s.at
	e.fired++
	if s.cb == nil {
		s.fn(e.now)
		return true
	}
	// Only ScheduleTag records are recycled: a Schedule record is left to
	// the garbage collector, since its Handle may still reference it.
	cb, tag := s.cb, s.tag
	s.cb = nil
	e.free = append(e.free, s)
	cb.Fire(e.now, tag)
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
	for len(e.events) > 0 && e.events[0].at < t {
		e.Step()
	}
	e.now = t
}
