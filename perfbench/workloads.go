package main

import (
	"fmt"

	"readretry/internal/core"
	"readretry/internal/experiments"
)

// workloadDef is one benchmark workload: a sweep grid, how its timed pass
// runs, and the assertions that keep it exercising the layer it exists
// for. README.md records why each workload was chosen.
type workloadDef struct {
	name     string
	grid     func(seed uint64) experiments.Config
	variants []experiments.Variant
	// sweep runs the timed pass through experiments.RunSweep, which
	// generates its own traces, exactly as cmd/repro does. Otherwise the
	// pass replays the traces built during set-up through a worker pool of
	// the benchmark's own, so trace generation stays out of the timed
	// region.
	sweep bool
	// tracedConds restricts the traced run to these conditions; nil keeps
	// them all.
	tracedConds []experiments.Condition
	// check adds workload-specific assertions over a completed pass.
	check func(p *pass) []problem
}

var (
	baseline  = experiments.Variant{Name: "Baseline", Scheme: core.Baseline}
	pnar2     = experiments.Variant{Name: "PnAR2", Scheme: core.PnAR2}
	psoPnAR2  = experiments.Variant{Name: "PSO+PnAR2", Scheme: core.PnAR2, PSO: true}
	noRetries = experiments.Variant{Name: "NoRR", Scheme: core.NoRR}
)

// Request counts of the two long-stream workloads. long-read needs enough
// reads that host time is dominated by the read path rather than by
// ssd.New; write-gc needs enough writes to drain each plane's free pool so
// that garbage collection and program suspension run (at the grid's 2,500
// requests they never do).
const (
	longReadRequests = 200000
	writeGCRequests  = 300000
)

var workloads = []workloadDef{
	{
		name: "fig14-sweep",
		grid: func(seed uint64) experiments.Config {
			cfg := experiments.DefaultConfig()
			cfg.Seed = seed
			return cfg
		},
		variants: experiments.Figure14Variants(),
		sweep:    true,
		tracedConds: []experiments.Condition{
			{PEC: 1000, Months: 3}, {PEC: 2000, Months: 12},
		},
	},
	{
		name: "long-read",
		grid: func(seed uint64) experiments.Config {
			cfg := experiments.DefaultConfig()
			cfg.Workloads = []string{"YCSB-C"}
			cfg.Conditions = []experiments.Condition{{PEC: 2000, Months: 12}}
			cfg.Requests = longReadRequests
			cfg.Seed = seed
			return cfg
		},
		variants: []experiments.Variant{baseline, pnar2, psoPnAR2, noRetries},
		check:    checkDeepRetries,
	},
	{
		name: "write-gc",
		grid: func(seed uint64) experiments.Config {
			cfg := experiments.DefaultConfig()
			cfg.Workloads = []string{"stg_0"}
			cfg.Conditions = []experiments.Condition{{PEC: 1000, Months: 3}}
			cfg.Requests = writeGCRequests
			cfg.Seed = seed
			return cfg
		},
		variants: []experiments.Variant{baseline, pnar2, noRetries},
		check:    checkGarbageCollects,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// minLongReadSteps is the mean ladder depth below which long-read no
// longer stresses the retry path.
const minLongReadSteps = 15

// checkDeepRetries asserts that every cell whose ladder start PSO leaves
// alone walks at least minLongReadSteps retry steps per read on average.
func checkDeepRetries(p *pass) []problem {
	var out []problem
	for i, c := range p.cells {
		if _, _, v := p.grid.CellAt(i); v.PSO {
			continue
		}
		if !(c.RetrySteps >= minLongReadSteps) {
			out = append(out, problem{i, fmt.Sprintf("%s: mean retry steps %.2f below %d", p.label(i), c.RetrySteps, minLongReadSteps)})
		}
	}
	return out
}

// checkGarbageCollects asserts that every cell ran garbage collection and
// suspended a program for a read.
func checkGarbageCollects(p *pass) []problem {
	var out []problem
	for i, m := range p.models {
		if m == nil {
			continue
		}
		if m.GCJobs == 0 || m.Suspensions == 0 {
			out = append(out, problem{i, fmt.Sprintf("%s: %d GC jobs, %d suspensions; both must be positive", p.label(i), m.GCJobs, m.Suspensions)})
		}
	}
	return out
}
