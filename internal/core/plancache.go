package core

import "sync"

// planKey identifies a plan exactly: everything BuildPlan's output depends
// on. All fields are comparable values, so the key works directly as a map
// key.
type planKey struct {
	scheme Scheme
	nrr    int
	t      StepTimings
	opts   Options
}

// planCache memoizes BuildPlan. For one device configuration there are only
// ~MaxLadderSteps distinct (scheme, nrr, timings, options) combinations per
// cell — a regular read plan was being rebuilt (op slice, dep slices, and
// adjacency) for every one of the millions of page reads in a trace.
//
// The cache is safe for concurrent use and returns shared *Plan values.
// Shared plans are immutable by contract: executors must treat every slice
// reachable from a Plan as read-only (the ssd executor keeps all mutable
// per-run state in its own scratch, enforced under -race by the plan-sharing
// tests).
type planCache struct {
	mu sync.RWMutex
	m  map[planKey]*Plan // guarded by mu
}

var sharedPlans = planCache{m: make(map[planKey]*Plan)}

// CachedPlan returns the memoized, immutable plan for the given inputs,
// building it on first use. The result is shared across callers and
// goroutines and is identical (reflect.DeepEqual) to what BuildPlan returns
// for the same inputs.
func CachedPlan(s Scheme, nrr int, t StepTimings, opts Options) *Plan {
	// Normalize exactly as BuildPlan does so equivalent inputs share an
	// entry ("NoRR, nrr=7" and "NoRR, nrr=0" build the same plan).
	if nrr < 0 {
		nrr = 0
	}
	if s == NoRR {
		nrr = 0
	}
	return sharedPlans.get(planKey{scheme: s, nrr: nrr, t: t, opts: opts})
}

// get returns the plan for key, building and storing it on first use.
func (c *planCache) get(key planKey) *Plan {
	c.mu.RLock()
	p, ok := c.m[key]
	c.mu.RUnlock()
	if ok {
		return p
	}
	built := BuildPlan(key.scheme, key.nrr, key.t, key.opts)
	c.mu.Lock()
	defer c.mu.Unlock()
	// Re-check under the write lock; keep the first stored plan so every
	// caller observes one canonical pointer.
	if existing, ok := c.m[key]; ok {
		return existing
	}
	c.m[key] = &built
	return &built
}
