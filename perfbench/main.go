// Command perfbench is the repository benchmark: it runs one named
// workload against the program's public packages, checks the output for
// correctness, and prints the metrics as one JSON line.
//
// Usage (from the repository root; run.py builds and invokes it):
//
//	perfbench --workload tables-full16 --seed 1 --seconds 30 --trace 0
//	perfbench --workload scale1024-mesh --seed 1 --seconds 30 --trace 1 --tmp .bench_build/tmpfs
//	perfbench compare a.json b.json
//
// With --trace 0 the last line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a profiled, spanned run.
// Either way a full record (metrics, provenance, spans, layer budget)
// is written to the --out directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runner is one named benchmark workload. An iteration is setup (build
// everything up to the first simulated event), run (the timed part) and
// check (verify the output).
type runner interface {
	setup() error
	// run executes the timed part; t is nil in untraced iterations.
	run(t *Tracer) error
	// check verifies the output of the last run.
	check() checkResult
	// results returns the last run's deterministic results (simulated
	// metrics, accuracies, counts) and its host-time metrics.
	results() (det, timing map[string]float64)
	// probe runs the traced run's extra layer measurements once, after
	// the iterations.
	probe() (map[string]float64, error)
	// cleanup removes the workload's temporary files.
	cleanup()
}

// checkResult counts the ops an iteration's correctness check covered.
type checkResult struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
}

func (c *checkResult) add(ok bool, format string, args ...any) {
	c.Attempted++
	if !ok {
		c.Failed++
		if len(c.Problems) < 10 {
			c.Problems = append(c.Problems, fmt.Sprintf(format, args...))
		}
	}
}

// fail counts n more ops, all failed, under one problem line.
func (c *checkResult) fail(n int, format string, args ...any) {
	c.add(false, format, args...)
	c.Attempted += n - 1
	c.Failed += n - 1
}

func (c *checkResult) merge(o checkResult) {
	c.Attempted += o.Attempted
	c.Failed += o.Failed
	for _, p := range o.Problems {
		if len(c.Problems) < 10 {
			c.Problems = append(c.Problems, p)
		}
	}
}

// env is what every workload receives.
type env struct {
	root string // repository checkout
	tmp  string // scratch directory for trace files and the serve store
	seed int64
}

var workloads = map[string]func(env) runner{
	"tables-full16":  newTables,
	"scale1024-mesh": newScale,
	"serve-dsmc":     newServe,
	"chaos-spec16":   newChaos,
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Line is the last line of standard output.
type Line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Record is the full result written to the output directory.
type Record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Traced     bool               `json:"traced"`
	Host       Host               `json:"host"`
	Line       Line               `json:"result"`
	Iterations []Iteration        `json:"iterations"`
	Check      checkResult        `json:"check"`
	Extra      map[string]float64 `json:"workload_metrics"`
	Budget     map[string]float64 `json:"layer_self_s,omitempty"`
	SpanSelf   map[string]float64 `json:"span_self_s,omitempty"`
	Spans      []Span             `json:"spans,omitempty"`
}

// Iteration is the record of one setup+run+check.
type Iteration struct {
	Traced bool    `json:"traced"`
	SetupS float64 `json:"setup_s"`
	// WallS is the host time of the timed part less the time the
	// hypervisor took from it (stolenFrom): HostWallS - StealS.
	WallS     float64 `json:"wall_s"`
	HostWallS float64 `json:"host_wall_s"`
	StealS    float64 `json:"steal_s"`
	// PeakRSSMB is the process's peak resident set during this
	// iteration's run, including what its set-up keeps alive.
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Det       map[string]float64 `json:"det"`
	Timing    map[string]float64 `json:"timing"`
	Mem       memDelta           `json:"mem"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Stdout, os.Args[2:]))
	}
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 0, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 30, "measured seconds per run")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run (per-layer metrics)")
	fs.StringVar(&o.root, "root", ".", "repository checkout")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for full result records")
	fs.StringVar(&o.tmp, "tmp", "", "directory for temporary files (default: the --out directory)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	line, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	root     string
	out      string
	tmp      string
}

func run(o options, log io.Writer) (Line, error) {
	mk, ok := workloads[o.workload]
	if !ok {
		return Line{}, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, sortedKeys(workloads))
	}
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		return Line{}, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if _, err := os.Stat(filepath.Join(o.root, "go.mod")); err != nil {
		return Line{}, fmt.Errorf("--root %s is not the repository checkout: %w", o.root, err)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return Line{}, err
	}
	if o.tmp == "" {
		o.tmp = o.out
	}
	tmp, err := os.MkdirTemp(o.tmp, "tmp-")
	if err != nil {
		return Line{}, err
	}
	defer os.RemoveAll(tmp)
	traced := o.trace == 1
	host := hostInfo(o.root, tmp)
	fmt.Fprintf(log, "perfbench: %s seed=%d seconds=%d trace=%d host=%q cpus=%d cpu_set=%s gomaxprocs=%d go=%s commit=%s tmpfs=%s\n",
		o.workload, o.seed, o.seconds, o.trace, host.CPU, host.NumCPU, host.CPUSet, host.GOMAXPROCS, host.Go, host.Commit, host.TmpFS)

	w := mk(env{root: o.root, tmp: tmp, seed: o.seed})
	defer w.cleanup()

	rec := Record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: traced, Host: host}
	var tracer *Tracer
	var budget Budget
	if traced {
		tracer = newTracer()
		budget.SelfS = map[string]float64{}
	}
	// The process runs on these CPUs; the time the hypervisor took
	// them away from it is not the program's.
	cpus := parseCPUList(host.CPUSet)
	start := time.Now()
	limit := time.Duration(o.seconds) * time.Second
	for i := 0; ; i++ {
		// A traced run alternates untraced and traced iterations, so the
		// tracing overhead is measured in the same process.
		tracedIt := traced && i%2 == 1
		// Set-up starts from a collected heap, so no iteration pays for
		// the garbage of the one before. It runs setupReps times and the
		// last one is kept; the peak resident set is counted from after
		// it, so it holds what set-up keeps but not what it discards.
		debug.FreeOSMemory()
		setupS, err := setupMedian(w)
		if err != nil {
			return Line{}, fmt.Errorf("setup: %w", err)
		}
		debug.FreeOSMemory()
		resetPeakRSS()
		var wallS float64
		var mem memDelta
		cpu0 := readCPUTimes(cpus)
		if tracedIt {
			var b Budget
			mem, err = measureMem(func() error {
				var perr error
				b, perr = profile(func() error {
					var rerr error
					wallS, rerr = tracer.span(o.workload, func() error { return w.run(tracer) })
					return rerr
				})
				return perr
			})
			for k, v := range b.SelfS {
				budget.SelfS[k] += v
			}
			budget.TotalS += b.TotalS
		} else {
			wallS, err = timed(func() error { return w.run(nil) })
		}
		if err != nil {
			return Line{}, fmt.Errorf("run: %w", err)
		}
		stolen := stolenFrom(wallS, cpu0, readCPUTimes(cpus))
		rssMB := peakRSSMB()
		rec.Check.merge(w.check())
		det, timing := w.results()
		rec.Iterations = append(rec.Iterations, Iteration{Traced: tracedIt, SetupS: setupS, WallS: wallS - stolen, HostWallS: wallS, StealS: stolen, PeakRSSMB: rssMB, Det: det, Timing: timing, Mem: mem})
		fmt.Fprintf(log, "perfbench: iteration %d traced=%v setup_s=%.6f wall_s=%.6f host_wall_s=%.6f steal_s=%.2f peak_rss_mb=%.3f\n", i, tracedIt, setupS, wallS-stolen, wallS, stolen, rssMB)

		// Start another iteration only if it should end within the
		// budget; a traced run needs one iteration of each kind.
		elapsed := time.Since(start)
		n := len(rec.Iterations)
		perIt := elapsed / time.Duration(n)
		if elapsed+perIt > limit && (!traced || n >= 2) {
			break
		}
	}
	rec.Check.merge(checkDeterminism(rec.Iterations))
	rec.Extra = workloadMetrics(rec.Iterations, rec.Check)

	line := Line{
		Correct:   rec.Check.Failed == 0,
		Attempted: rec.Check.Attempted,
		Failed:    rec.Check.Failed,
		Metrics:   map[string]Metric{},
	}
	if !traced {
		vals := map[string]float64{
			"wall_s":      median(pick(rec.Iterations, false, func(it Iteration) float64 { return it.WallS })),
			"setup_s":     median(pick(rec.Iterations, false, func(it Iteration) float64 { return it.SetupS })),
			"peak_rss_mb": median(pick(rec.Iterations, false, func(it Iteration) float64 { return it.PeakRSSMB })),
		}
		for _, s := range endToEnd {
			line.Metrics[s.name] = Metric{vals[s.name], s.unit}
		}
	} else {
		probe, err := w.probe()
		if err != nil {
			return Line{}, fmt.Errorf("probe: %w", err)
		}
		var pc checkResult
		line.Metrics, pc = layerMetrics(o.workload, rec, probe, budget)
		rec.Check.merge(pc)
		line.Correct, line.Attempted, line.Failed = rec.Check.Failed == 0, rec.Check.Attempted, rec.Check.Failed
		rec.Budget = budget.SelfS
		rec.Spans = tracer.spans
		rec.SpanSelf = selfTimes(tracer.spans)
	}
	rec.Line = line
	for _, p := range rec.Check.Problems {
		fmt.Fprintln(log, "perfbench: CHECK FAILED:", p)
	}
	for _, k := range sortedKeys(rec.Extra) {
		fmt.Fprintf(log, "perfbench: %s = %v\n", k, rec.Extra[k])
	}
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, o.trace))
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return Line{}, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return Line{}, err
	}
	fmt.Fprintln(log, "perfbench: record written to", path)
	return line, nil
}

// setupReps is how many times each iteration sets up: set-up takes
// milliseconds, so one sample per iteration is too noisy.
const setupReps = 5

// setupMedian runs w's set-up setupReps times and returns the median
// time; the last set-up is the one the iteration runs.
func setupMedian(w runner) (float64, error) {
	times := make([]float64, setupReps)
	for i := range times {
		var err error
		if times[i], err = timed(w.setup); err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

func timed(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}

// checkDeterminism requires every deterministic result to be identical
// across the run's iterations, traced and untraced alike.
func checkDeterminism(its []Iteration) checkResult {
	var c checkResult
	for _, it := range its[1:] {
		for k, v := range its[0].Det {
			got, ok := it.Det[k]
			c.add(ok && got == v, "deterministic result %s differs between iterations: %v vs %v", k, v, got)
		}
	}
	return c
}

// workloadMetrics summarizes the untraced iterations: deterministic
// results as they are, host-time metrics as medians, plus fail_frac.
func workloadMetrics(its []Iteration, c checkResult) map[string]float64 {
	out := map[string]float64{}
	for k, v := range its[0].Det {
		out[k] = v
	}
	for k := range its[0].Timing {
		out[k] = median(pick(its, false, func(it Iteration) float64 { return it.Timing[k] }))
	}
	out["fail_frac"] = float64(c.Failed) / math.Max(1, float64(c.Attempted))
	return out
}

// pick collects f over the iterations with the given traced flag.
func pick(its []Iteration, traced bool, f func(Iteration) float64) []float64 {
	var out []float64
	for _, it := range its {
		if it.Traced == traced {
			out = append(out, f(it))
		}
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile of sorted data.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// resetPeakRSS restarts the kernel's peak-resident-set count of this
// process (Linux: writing 5 to /proc/self/clear_refs resets VmHWM), so
// each iteration's peak is measured on its own.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set in MB since the last
// resetPeakRSS (VmHWM), or over the whole process where VmHWM is not
// available.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memDelta is the change in the runtime's allocation counters over fn.
type memDelta struct {
	AllocMB   float64 `json:"alloc_mb"`
	Allocs    float64 `json:"allocs"`
	GCCycles  float64 `json:"gc_cycles"`
	GCPauseMs float64 `json:"gc_pause_ms"`
}

func measureMem(fn func() error) (memDelta, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := fn()
	runtime.ReadMemStats(&b)
	return memDelta{
		AllocMB:   float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20),
		Allocs:    float64(b.Mallocs - a.Mallocs),
		GCCycles:  float64(b.NumGC - a.NumGC),
		GCPauseMs: float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
	}, err
}
