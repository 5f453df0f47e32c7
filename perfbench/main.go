// Command perfbench is the repository's benchmark. It drives the simulator
// through its exported functions (experiments.RunSweep, workload.Generate,
// ssd.New/Run, ftl.Precondition, rpt.Profile, chip.ReadRetry and the CSV
// sink), checks every output it produces, and prints one JSON result line.
//
// Usage, from the repository root (see run.sh, which builds it):
//
//	perfbench --workload fig14-sweep --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a separate traced run. README.md
// explains the workloads and which layer metric should move which
// end-to-end metric.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// outDir receives the side outputs of a run (spans, CPU profile, stamped
// result). It lies inside the checkout and is ignored by git.
const outDir = ".bench_build/perfbench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envStamp identifies the machine, toolchain and source a result came from.
type envStamp struct {
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        int    `json:"trace"`
	CPUModel     string `json:"cpu_model"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func main() {
	wl := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 7, "input seed; 7 reproduces testdata/golden_fig14_tlc.csv")
	seconds := flag.Int("seconds", 25, "length of the timed region in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	def, ok := workloadByName(*wl)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {%s} --seconds >= 1 --trace {0,1}\n",
			strings.Join(workloadNames(), ","))
		os.Exit(2)
	}
	env := stamp(def.name, *seed, *seconds, *traced)
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)

	b := &bench{def: def, seed: *seed, seconds: float64(*seconds), workers: runtime.GOMAXPROCS(0)}
	var err error
	if *traced == 1 {
		err = b.runTraced()
	} else {
		err = b.runTimed()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	res := result{
		Correct:   len(b.failures) == 0 && b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
	if err := writeSide(env, res, b.notes); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// writeSide stores the stamped result with the notes that explain it
// (which percentile a tail is, sample counts) next to the spans.
func writeSide(env envStamp, res result, notes map[string]any) error {
	side := map[string]any{"env": env, "result": res, "notes": notes}
	data, err := json.MarshalIndent(side, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding side result: %w", err)
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", env.Workload, env.Seed, env.Trace)
	return writeOut(name, data)
}

func writeOut(name string, data []byte) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), data, 0o644)
}

func stamp(wl string, seed uint64, seconds, traced int) envStamp {
	return envStamp{
		Workload:     wl,
		Seed:         seed,
		Seconds:      seconds,
		Trace:        traced,
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       commit(),
		SourceSHA256: sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, or "unknown" when
// the source tree is not a git checkout; sourceDigest identifies the source
// either way.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// sourceDigest hashes every regular file of the tree outside hidden
// directories (the git metadata and the build output), in path order.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// median is the middle of xs (the mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest of p90/p95/p99/p99.9 that has at least ten
// samples above it, by nearest rank, with its label. Below 100 samples no
// percentile qualifies and the maximum is returned as "max".
func tail(xs []float64) (float64, string) {
	if len(xs) == 0 {
		return 0, "none"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range []struct {
		permille int
		label    string
	}{{999, "p99.9"}, {990, "p99"}, {950, "p95"}, {900, "p90"}} {
		rank := (p.permille*n + 999) / 1000 // nearest rank, 1-based
		if n-rank >= 10 {
			return s[rank-1], p.label
		}
	}
	return s[n-1], "max"
}
