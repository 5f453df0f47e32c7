package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"readretry/internal/chip"
	"readretry/internal/experiments"
	"readretry/internal/ftl"
	"readretry/internal/nand"
	"readretry/internal/rng"
	"readretry/internal/rpt"
	"readretry/internal/trace"
	"readretry/internal/vth"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Times are nanoseconds since the tracer started; AllocBytes is
// the heap allocated during the span and Count the work it covered
// (pages preconditioned, retry steps simulated, rows encoded, ...).
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Cell       int    `json:"cell"`
	Name       string `json:"name"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
	Count      int64  `json:"count"`
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced runs call the same code.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

// allocated reads the cumulative heap allocation counter; t.mu must be held.
func (t *tracer) allocated() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, cell int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Cell: cell, Name: name,
		StartNS: time.Since(t.t0).Nanoseconds(), AllocBytes: t.allocated(),
	})
	return id
}

// end closes span id with the work count it covered.
func (t *tracer) end(id int, count int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.EndNS = time.Since(t.t0).Nanoseconds()
	s.AllocBytes = t.allocated() - s.AllocBytes
	s.Count = count
}

// named returns the closed spans with the given name.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.EndNS > 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(name string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return writeOut(name, buf.Bytes())
}

// setupReps is how many times the traced run sets up, for
// workload.generate_ms.
const setupReps = 3

// layerReps is how many times each stand-alone layer timing repeats per
// distinct condition.
const layerReps = 3

// readRetryAddrs is the length of the fixed address stream chip.ReadRetry
// is timed over.
const readRetryAddrs = 20000

// layerTimings times the layers ssd.New hides, on their own: ftl.New plus
// Precondition over PreconditionPages and chip.ReadRetry on the fast path
// once per condition of the grid, and rpt.Profile once for the device
// configuration. Each repeats layerReps times.
func (b *bench) layerTimings(cfg experiments.Config, tr *tracer) error {
	base := cfg.Base
	model := vth.NewModel(base.VthParams, base.Seed)
	for r := 0; r < layerReps; r++ {
		s := tr.begin("rpt.profile", -1, -1)
		_, err := rpt.Profile(model, base.RPT)
		tr.end(s, 1)
		if err != nil {
			return err
		}
	}
	src := rng.New(b.seed)
	geom := base.Geometry
	addrs := make([]nand.Address, readRetryAddrs)
	for i := range addrs {
		addrs[i] = nand.Address{
			Plane: src.Intn(geom.PlanesPerDie),
			Block: src.Intn(geom.BlocksPerPlane),
			Page:  src.Intn(geom.PagesPerBlock),
		}
	}
	conds := cfg.Conditions
	if conds == nil {
		conds = experiments.DefaultConfig().Conditions
	}
	steps := 0
	for _, cond := range conds {
		for r := 0; r < layerReps; r++ {
			s := tr.begin("ftl.precondition", -1, -1)
			f, err := ftl.New(ftl.Config{
				Dies:              base.Dies(),
				PlanesPerDie:      geom.PlanesPerDie,
				BlocksPerPlane:    geom.BlocksPerPlane,
				PagesPerBlock:     geom.PagesPerBlock,
				GCThresholdBlocks: base.GCThresholdBlocks,
			})
			if err != nil {
				return err
			}
			for lpn := int64(0); lpn < base.PreconditionPages; lpn++ {
				if _, err := f.Precondition(lpn); err != nil {
					return err
				}
			}
			tr.end(s, base.PreconditionPages)
		}
		c, err := chip.New(geom, base.Timing, model, 0)
		if err != nil {
			return err
		}
		c.SetCondition(cond.PEC, cond.Months, base.TempC)
		steps += c.ReadRetry(addrs[0], base.TempC).RetrySteps // builds the condition's profile
		for r := 0; r < layerReps; r++ {
			s := tr.begin("chip.read_retry", -1, -1)
			for _, a := range addrs {
				steps += c.ReadRetry(a, base.TempC).RetrySteps
			}
			tr.end(s, int64(len(addrs)))
		}
	}
	b.note("chip_read_retry_steps", steps) // uses every timed call's result
	return nil
}

// runTraced measures the per-layer metrics. It runs the workload's traced
// cell set three times: with the timed region's worker pool under a CPU
// profile, then serially untraced and serially with spans, paired cell by
// cell. All three must produce identical rows, and the two serial replays
// identical model statistics.
func (b *bench) runTraced() error {
	tr := newTracer()
	cfg := b.def.grid(b.seed)
	var traces [][]trace.Record
	for r := 0; r < setupReps; r++ {
		var err error
		if traces, _, err = b.setup(cfg, tr); err != nil {
			return err
		}
	}
	if err := b.layerTimings(cfg, tr); err != nil {
		return err
	}
	sub := cfg
	if b.def.tracedConds != nil {
		sub.Conditions = b.def.tracedConds
	}

	// The CPU profile covers the pool pass, which repeats the timed
	// region's work, so its shares attribute wall_s to packages.
	profPath := filepath.Join(outDir, fmt.Sprintf("cpu-%s-seed%d.pprof", b.def.name, b.seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	prof, err := os.Create(profPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return err
	}
	gc0 := gcCycles()
	pool, err := measure(func() (*pass, error) { return b.poolPass(sub, traces) })
	pprof.StopCPUProfile()
	gcs := gcCycles() - gc0
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("pool pass: %w", err)
	}
	serial, traced, err := b.pairedReplay(sub, traces, tr)
	if err != nil {
		return fmt.Errorf("serial replay: %w", err)
	}

	b.record(len(pool.cells), b.checkPass(pool))
	b.record(len(serial.cells), b.checkPass(serial))
	probs := b.checkPass(traced)
	if !bytes.Equal(pool.csv, traced.csv) || !bytes.Equal(serial.csv, traced.csv) {
		probs = append(probs, problem{-1, "traced rows differ from the untraced runs"})
	}
	for i := range traced.models {
		if *traced.models[i] != *serial.models[i] {
			probs = append(probs, problem{i, fmt.Sprintf("%s: traced model statistics %+v differ from untraced %+v",
				traced.label(i), *traced.models[i], *serial.models[i])})
		}
	}
	b.record(len(traced.cells), probs)

	shares, samples, err := cpuShares(profPath)
	if err != nil {
		return err
	}
	if err := tr.write(fmt.Sprintf("spans-%s-seed%d.jsonl", b.def.name, b.seed)); err != nil {
		return err
	}
	b.layerMetrics(tr, pool, serial, traced)
	for _, pkg := range cpuLayers {
		b.setMetric("cpu."+pkg, "fraction", shares[pkg])
	}
	b.setMetric("cpu.samples", "count", float64(samples))
	b.setMetric("runtime.gc_cycles", "count", float64(gcs))
	b.setMetric("runtime.peak_rss_mb", "MB", peakRSSMB())
	b.modelMetrics(traced.models)
	b.note("traced_cells", len(traced.cells))
	b.note("workers", b.workers)
	return nil
}

// layerMetrics derives the per-layer timings from the spans.
func (b *bench) layerMetrics(tr *tracer, pool, serial, traced *pass) {
	msOf := func(spans []span) []float64 {
		var out []float64
		for _, s := range spans {
			out = append(out, s.ms())
		}
		return out
	}
	timing := func(name, metricName string) {
		xs := msOf(tr.named(name))
		p50 := median(xs)
		t, label := tail(xs)
		b.setMetric(metricName+".p50", "ms", p50)
		b.setMetric(metricName+".tail", "ms", t)
		b.note(metricName+".tail", fmt.Sprintf("%s of %d samples", label, len(xs)))
	}
	timing("ssd.new", "ssd.new_ms")
	timing("ssd.run", "ssd.run_ms")
	timing("ftl.precondition", "ftl.precondition_ms")

	var newAlloc, runAlloc uint64
	var runNS, steps int64
	for _, s := range tr.named("ssd.new") {
		newAlloc += s.AllocBytes
	}
	for _, s := range tr.named("ssd.run") {
		runAlloc += s.AllocBytes
		runNS += s.EndNS - s.StartNS
		steps += s.Count
	}
	b.setMetric("ssd.new_alloc_mb", "MB", float64(newAlloc)/1e6)
	b.setMetric("ssd.run_alloc_mb", "MB", float64(runAlloc)/1e6)
	b.setMetric("ssd.run_ns_per_retry_step", "ns", float64(runNS)/float64(max(steps, 1)))
	b.setMetric("ssd.cells", "count", float64(len(tr.named("ssd.run"))))

	var perRead []float64
	for _, s := range tr.named("chip.read_retry") {
		perRead = append(perRead, float64(s.EndNS-s.StartNS)/float64(s.Count))
	}
	b.setMetric("chip.read_retry_ns", "ns", median(perRead))
	b.setMetric("rpt.profile_ms", "ms", median(msOf(tr.named("rpt.profile"))))
	b.setMetric("workload.generate_ms", "ms", median(msOf(tr.named("workload.generate"))))

	var encodeMS float64
	for _, s := range tr.named("experiments.csv_encode") {
		encodeMS += s.ms()
	}
	b.setMetric("experiments.csv_encode_ms", "ms", encodeMS)
	// The untraced replay's wall time is the sum of the cells' times, so
	// this is the share of the workers' capacity the pool kept busy.
	b.setMetric("experiments.pool_efficiency", "fraction", serial.wall/(pool.wall*float64(b.workers)))
	b.setMetric("trace.overhead_s", "s", traced.wall-serial.wall)
	b.setMetric("trace.spans", "count", float64(len(tr.spans)))
	b.note("pool_wall_s", pool.wall)
	b.note("serial_wall_s", serial.wall)
	b.note("traced_wall_s", traced.wall)
}

// modelMetrics aggregates the traced cells' simulated-time statistics:
// counts are summed, per-cell means and utilizations averaged over cells,
// and retry steps averaged per page read over the cells PSO leaves alone.
func (b *bench) modelMetrics(models []*modelCell) {
	var sum modelCell
	var stepSum float64
	var stepReads int64
	for _, m := range models {
		sum.ReadMean += m.ReadMean
		sum.ReadP99 += m.ReadP99
		sum.ReadQueue += m.ReadQueue
		sum.ReadService += m.ReadService
		sum.DieUtil += m.DieUtil
		sum.ChannelUtil += m.ChannelUtil
		sum.WriteAmp += m.WriteAmp
		sum.PageReads += m.PageReads
		sum.GCJobs += m.GCJobs
		sum.Suspensions += m.Suspensions
		if !m.PSO {
			stepSum += m.RetryStepSum
			stepReads += m.RetryReads
		}
	}
	n := float64(len(models))
	b.setMetric("model.read_mean_us", "us", sum.ReadMean/n)
	b.setMetric("model.read_p99_us", "us", sum.ReadP99/n)
	b.setMetric("model.read_queue_us", "us", sum.ReadQueue/n)
	b.setMetric("model.read_service_us", "us", sum.ReadService/n)
	b.setMetric("model.die_util", "fraction", sum.DieUtil/n)
	b.setMetric("model.channel_util", "fraction", sum.ChannelUtil/n)
	b.setMetric("model.write_amp", "ratio", sum.WriteAmp/n)
	b.setMetric("model.retry_steps_mean", "steps", stepSum/float64(max(stepReads, 1)))
	b.setMetric("model.page_reads", "count", float64(sum.PageReads))
	b.setMetric("model.gc_jobs", "count", float64(sum.GCJobs))
	b.setMetric("model.suspensions", "count", float64(sum.Suspensions))
}

func gcCycles() uint32 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.NumGC
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}
