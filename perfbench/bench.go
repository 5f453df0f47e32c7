package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"readretry/internal/experiments"
	"readretry/internal/ssd"
	"readretry/internal/trace"
	"readretry/internal/workload"
)

// goldenSeed is the seed testdata/golden_fig14_tlc.csv was produced at.
const goldenSeed = 7

// goldenCSV holds the default Figure 14 grid's rows at goldenSeed.
const goldenCSV = "testdata/golden_fig14_tlc.csv"

// bench is one benchmark run: its inputs, the checks it has made and the
// metrics it reports.
type bench struct {
	def     workloadDef
	seed    uint64
	seconds float64
	workers int

	golden map[string]string // row key (first four columns) → row; nil when not checked

	attempted, failed int
	failures          []string
	metrics           map[string]metric
	notes             map[string]any
}

// pass is one execution of a workload's cell grid.
type pass struct {
	grid   *experiments.Grid
	cells  []experiments.Cell
	models []*modelCell // per cell; nil entries when the pass went through RunSweep
	csv    []byte

	wall, cpu, allocMB float64
}

func (p *pass) label(i int) string { return p.grid.Label(i) }

// problem is a failed check on cell i of a pass, or on the whole pass when
// i is -1.
type problem struct {
	cell int
	msg  string
}

// modelCell holds one cell's simulated-time statistics (ssd.Stats), the
// values every simulator-speed change must leave identical.
type modelCell struct {
	Requests, Completed    int64
	ReadMean, ReadP99      float64
	ReadQueue, ReadService float64
	DieUtil, ChannelUtil   float64
	WriteAmp, RetryStepSum float64
	RetryReads, PageReads  int64
	GCJobs, Suspensions    int64
	PSO                    bool
}

func (b *bench) setMetric(name, unit string, v float64) {
	if b.metrics == nil {
		b.metrics = make(map[string]metric)
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func (b *bench) note(key string, v any) {
	if b.notes == nil {
		b.notes = make(map[string]any)
	}
	b.notes[key] = v
}

// record counts a pass's cells as attempted and each cell named by a
// problem as failed; a pass-level problem fails every cell.
func (b *bench) record(cells int, probs []problem) {
	b.attempted += cells
	bad := make(map[int]bool)
	for _, pr := range probs {
		if pr.cell < 0 {
			for i := 0; i < cells; i++ {
				bad[i] = true
			}
		} else {
			bad[pr.cell] = true
		}
		b.failures = append(b.failures, pr.msg)
	}
	b.failed += len(bad)
}

// generate builds a workload's request stream exactly as the sweep engine
// does: the footprint is 60% of the device and the arrival rate cfg.IOPS
// pages per second.
func generate(cfg experiments.Config, name string) ([]trace.Record, error) {
	spec, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	spec.FootprintPages = cfg.Base.TotalPages() * 6 / 10
	spec.AvgIOPS = cfg.IOPS / spec.AvgPagesPerRequest()
	return workload.NewGenerator(spec, cfg.Seed).Generate(cfg.Requests), nil
}

// setup generates every workload trace of the grid and, where the golden
// check applies, loads the golden rows. It returns the traces and the
// host seconds it took.
func (b *bench) setup(cfg experiments.Config, tr *tracer) ([][]trace.Record, float64, error) {
	g, err := experiments.NewGrid(cfg, b.def.variants)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	root := tr.begin("setup", -1, -1)
	defer tr.end(root, 0)
	traces := make([][]trace.Record, len(g.Workloads))
	for i, wl := range g.Workloads {
		s := tr.begin("workload.generate", root, -1)
		traces[i], err = generate(cfg, wl)
		tr.end(s, int64(len(traces[i])))
		if err != nil {
			return nil, 0, err
		}
	}
	if b.def.sweep && b.seed == goldenSeed {
		if b.golden, err = loadGolden(goldenCSV); err != nil {
			return nil, 0, err
		}
	}
	return traces, time.Since(t0).Seconds(), nil
}

// sameTraces reports whether two set-ups generated identical traces.
func sameTraces(a, b [][]trace.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// loadGolden indexes the golden CSV by row key; the header is stored under
// the empty key.
func loadGolden(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("golden rows: %w", err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	first := true
	for sc.Scan() {
		if first {
			out[""] = sc.Text()
			first = false
			continue
		}
		out[rowKey(sc.Text())] = sc.Text()
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("golden rows: %w", err)
	}
	return out, nil
}

// rowKey is a CSV row's cell coordinate: workload, pec, months, config.
func rowKey(row string) string {
	fields := strings.SplitN(row, ",", 5)
	return strings.Join(fields[:len(fields)-1], ",")
}

// measure runs one pass after a collection and records its host wall
// time, CPU time and bytes allocated.
func measure(run func() (*pass, error)) (*pass, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	p, err := run()
	wall := time.Since(t0).Seconds()
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	p.wall, p.cpu = wall, cpu1-cpu0
	p.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	return p, nil
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// poolPass runs the grid the way the workload's timed region does, with
// b.workers workers.
func (b *bench) poolPass(cfg experiments.Config, traces [][]trace.Record) (*pass, error) {
	if b.def.sweep {
		return b.sweepPass(cfg)
	}
	return b.cellPass(cfg, traces, b.workers, nil)
}

// sweepPass runs the grid through experiments.RunSweep with a streaming
// CSV sink, as cmd/repro does.
func (b *bench) sweepPass(cfg experiments.Config) (*pass, error) {
	g, err := experiments.NewGrid(cfg, b.def.variants)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	sink, err := experiments.NewCSVSink(&buf)
	if err != nil {
		return nil, err
	}
	cfg.Sink = sink
	cfg.Parallelism = b.workers
	res, err := experiments.RunSweep(context.Background(), cfg, b.def.variants)
	if err != nil {
		return nil, err
	}
	return &pass{grid: g, cells: res.Cells, models: make([]*modelCell, len(res.Cells)), csv: buf.Bytes()}, nil
}

// cellPass replays the grid through the calls RunSweep makes for each cell
// (ssd.New, then Run on the workload's shared trace), on workers
// goroutines, then normalizes and encodes the rows.
func (b *bench) cellPass(cfg experiments.Config, traces [][]trace.Record, workers int, tr *tracer) (*pass, error) {
	g, err := experiments.NewGrid(cfg, b.def.variants)
	if err != nil {
		return nil, err
	}
	n := g.Total()
	perWorkload := n / len(g.Workloads)
	p := &pass{grid: g, cells: make([]experiments.Cell, n), models: make([]*modelCell, n)}
	errs := make([]error, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers && w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				p.cells[idx], p.models[idx], errs[idx] = runCell(cfg, g, idx, traces[idx/perWorkload], tr)
			}
		}()
	}
	for idx := 0; idx < n; idx++ {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if p.csv, err = encode(p.cells, b.def.variants, tr); err != nil {
		return nil, err
	}
	return p, nil
}

// pairedReplay replays the grid serially twice over, cell by cell: each
// cell runs once untraced and once traced, alternating which goes first.
// Pairing the two at each cell keeps the host's drifting speed out of
// their difference, the tracing overhead. Each pass's wall is the sum of
// its cell times plus its encoding.
func (b *bench) pairedReplay(cfg experiments.Config, traces [][]trace.Record, tr *tracer) (untraced, traced *pass, err error) {
	g, err := experiments.NewGrid(cfg, b.def.variants)
	if err != nil {
		return nil, nil, err
	}
	n := g.Total()
	perWorkload := n / len(g.Workloads)
	untraced = &pass{grid: g, cells: make([]experiments.Cell, n), models: make([]*modelCell, n)}
	traced = &pass{grid: g, cells: make([]experiments.Cell, n), models: make([]*modelCell, n)}
	sides := [2]struct {
		p  *pass
		tr *tracer
	}{{untraced, nil}, {traced, tr}}
	for idx := 0; idx < n; idx++ {
		for k := 0; k < 2; k++ {
			o := sides[(idx+k)%2]
			t0 := time.Now()
			o.p.cells[idx], o.p.models[idx], err = runCell(cfg, g, idx, traces[idx/perWorkload], o.tr)
			o.p.wall += time.Since(t0).Seconds()
			if err != nil {
				return nil, nil, err
			}
		}
	}
	for _, o := range sides {
		t0 := time.Now()
		if o.p.csv, err = encode(o.p.cells, b.def.variants, o.tr); err != nil {
			return nil, nil, err
		}
		o.p.wall += time.Since(t0).Seconds()
	}
	return untraced, traced, nil
}

// runCell simulates one cell with the device configuration the sweep
// engine builds for it.
func runCell(cfg experiments.Config, g *experiments.Grid, idx int, recs []trace.Record, tr *tracer) (experiments.Cell, *modelCell, error) {
	wl, cond, v := g.CellAt(idx)
	dc := cfg.Base
	dc.Scheme, dc.UsePSO, dc.UseRetryHistory = v.Scheme, v.PSO, v.History
	dc.PEC, dc.RetentionMonths = cond.PEC, cond.Months

	root := tr.begin("cell", -1, idx)
	s := tr.begin("ssd.new", root, idx)
	dev, err := ssd.New(dc)
	tr.end(s, dc.PreconditionPages)
	if err != nil {
		return experiments.Cell{}, nil, fmt.Errorf("%s: %w", g.Label(idx), err)
	}
	s = tr.begin("ssd.run", root, idx)
	st, err := dev.Run(recs)
	if err != nil {
		return experiments.Cell{}, nil, fmt.Errorf("%s: %w", g.Label(idx), err)
	}
	stepSum := st.RetrySteps.Mean() * float64(st.RetrySteps.N())
	tr.end(s, int64(math.Round(stepSum)))
	tr.end(root, 1)

	cell := experiments.Cell{
		Workload: wl, Cond: cond, Config: v.Name,
		Mean: st.MeanAll(), MeanRead: st.MeanRead(),
		P99Read: st.ReadPercentile(99), RetrySteps: st.MeanRetrySteps(),
	}
	m := &modelCell{
		Requests: int64(len(recs)), Completed: st.Completed,
		ReadMean: st.MeanRead(), ReadP99: st.ReadPercentile(99),
		ReadQueue: st.ReadQueueDelay.Mean(), ReadService: st.ReadService.Mean(),
		DieUtil: st.DieUtilization(), ChannelUtil: st.ChannelUtilization(),
		WriteAmp: st.WriteAmplification(), RetryStepSum: stepSum,
		RetryReads: st.RetrySteps.N(), PageReads: st.PageReads,
		GCJobs: st.GCJobs, Suspensions: st.Suspensions,
		PSO: v.PSO,
	}
	return cell, m, nil
}

// encode normalizes the cells per stripe and writes them through the
// sweep engine's CSV sink.
func encode(cells []experiments.Cell, variants []experiments.Variant, tr *tracer) ([]byte, error) {
	if err := experiments.NormalizeCells(cells, variants); err != nil {
		return nil, err
	}
	s := tr.begin("experiments.csv_encode", -1, -1)
	defer tr.end(s, int64(len(cells)))
	var buf bytes.Buffer
	sink, err := experiments.NewCSVSink(&buf)
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		if err := sink.Cell(c, i, len(cells)); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// checkPass verifies a pass's outputs: golden rows at the golden seed, and
// at every seed that means are finite and positive, every request
// completed, Baseline normalizes to 1 and NoRR is no slower than Baseline
// in each stripe; then the workload's own assertions.
func (b *bench) checkPass(p *pass) []problem {
	var out []problem
	add := func(i int, format string, args ...any) {
		out = append(out, problem{i, fmt.Sprintf(format, args...)})
	}
	for i, c := range p.cells {
		for _, f := range []struct {
			name string
			v    float64
		}{{"mean", c.Mean}, {"mean read", c.MeanRead}, {"p99 read", c.P99Read}} {
			if !(f.v > 0) || math.IsInf(f.v, 0) {
				add(i, "%s: %s response time %v is not finite and positive", p.label(i), f.name, f.v)
			}
		}
		if m := p.models[i]; m != nil && m.Completed != m.Requests {
			add(i, "%s: %d of %d requests completed", p.label(i), m.Completed, m.Requests)
		}
		if c.Config == "Baseline" && c.Normalized != 1 {
			add(i, "%s: Baseline normalizes to %v, not 1", p.label(i), c.Normalized)
		}
	}
	stride := p.grid.Stride()
	for base := 0; base < len(p.cells); base += stride {
		var baseMean, noRR float64
		for i := base; i < base+stride; i++ {
			switch p.cells[i].Config {
			case "Baseline":
				baseMean = p.cells[i].Mean
			case "NoRR":
				noRR = p.cells[i].Mean
			}
		}
		if noRR > baseMean {
			add(base, "%s: NoRR mean %.2f exceeds Baseline mean %.2f", p.label(base), noRR, baseMean)
		}
	}
	if b.golden != nil {
		rows := strings.Split(strings.TrimSuffix(string(p.csv), "\n"), "\n")
		if rows[0] != b.golden[""] {
			add(-1, "CSV header %q differs from %s", rows[0], goldenCSV)
		}
		if len(rows)-1 != len(p.cells) {
			add(-1, "%d CSV rows for %d cells", len(rows)-1, len(p.cells))
		}
		for i, row := range rows[1:] {
			if want := b.golden[rowKey(row)]; row != want {
				add(i, "row %q differs from %s row %q", row, goldenCSV, want)
			}
		}
	}
	if b.def.check != nil {
		out = append(out, b.def.check(p)...)
	}
	return out
}

// Paper figures the accuracy metrics compare against (§7.2, Figure 14).
const paperNoRRRatio = 2.37

var paperReductionPct = []struct {
	scheme string
	pct    float64
}{{"PR2", 17.7}, {"AR2", 11.9}, {"PnAR2", 28.9}}

// accuracy computes err_norr_ratio and err_reduction_pp with the same
// Result methods cmd/repro's paper-vs-measured table uses, over the
// schemes the workload runs.
func accuracy(p *pass, variants []experiments.Variant) (normErr, reductionPP float64) {
	res := &experiments.Result{Cells: p.cells}
	normErr = math.Abs(res.RatioToNoRR("PnAR2", false)/paperNoRRRatio - 1)
	n := 0
	for _, pr := range paperReductionPct {
		for _, v := range variants {
			if v.Name == pr.scheme {
				avg, _ := res.Reduction(pr.scheme, "Baseline", false)
				reductionPP += math.Abs(100*avg - pr.pct)
				n++
			}
		}
	}
	return normErr, reductionPP / float64(n)
}

// runTimed measures the end-to-end metrics: whole passes of the grid,
// untraced, until their wall times add up to b.seconds (at least one
// pass). Set-up runs before the first pass and again after every pass, so
// that its median samples the host across the whole run; every set-up
// must generate the same traces.
func (b *bench) runTimed() error {
	cfg := b.def.grid(b.seed)
	g, err := experiments.NewGrid(cfg, b.def.variants)
	if err != nil {
		return err
	}
	traces, setupS, err := b.setup(cfg, nil)
	if err != nil {
		return err
	}
	setups := []float64{setupS}
	var walls, cpus, allocs []float64
	var first *pass
	for measured := 0.0; measured < b.seconds; {
		p, err := measure(func() (*pass, error) { return b.poolPass(cfg, traces) })
		if err != nil {
			b.record(g.Total(), []problem{{-1, fmt.Sprintf("pass %d: %v", len(walls)+1, err)}})
			break
		}
		probs := b.checkPass(p)
		if first == nil {
			first = p
		} else if !bytes.Equal(p.csv, first.csv) {
			probs = append(probs, problem{-1, fmt.Sprintf("pass %d rows differ from pass 1", len(walls)+1)})
		}
		again, setupS, err := b.setup(cfg, nil)
		if err != nil {
			return err
		}
		if !sameTraces(again, traces) {
			probs = append(probs, problem{-1, fmt.Sprintf("set-up %d generated different traces", len(setups)+1)})
		}
		b.record(len(p.cells), probs)
		setups = append(setups, setupS)
		walls, cpus, allocs = append(walls, p.wall), append(cpus, p.cpu), append(allocs, p.allocMB)
		measured += p.wall
	}
	b.setMetric("wall_s", "s", median(walls))
	b.setMetric("cpu_s", "s", median(cpus))
	b.setMetric("alloc_mb", "MB", median(allocs))
	b.setMetric("setup_s", "s", median(setups))
	b.setMetric("ok_frac", "fraction", float64(b.attempted-b.failed)/float64(b.attempted))
	if first != nil {
		normErr, redPP := accuracy(first, b.def.variants)
		b.setMetric("err_norr_ratio", "fraction", normErr)
		b.setMetric("err_reduction_pp", "pp", redPP)
	}
	b.note("passes", len(walls))
	b.note("pass_wall_s", walls)
	b.note("pass_cpu_s", cpus)
	b.note("setup_s", setups)
	b.note("cells_per_pass", g.Total())
	b.note("workers", b.workers)
	return nil
}
