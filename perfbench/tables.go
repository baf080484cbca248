package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/experiments"
	"github.com/cosmos-coherence/cosmos/internal/machine"
	"github.com/cosmos-coherence/cosmos/internal/report"
	"github.com/cosmos-coherence/cosmos/internal/stats"
	"github.com/cosmos-coherence/cosmos/internal/trace"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// tables regenerates Tables 5-8 at full scale on the paper's 16-node
// machine, capturing the five traces cold in memory (no trace cache)
// on an experiment pool of width 2.
type tables struct {
	env
	cfg      experiments.Config
	expected []string
	readErr  error

	suite *experiments.Suite
	out   bytes.Buffer
	rows5 []experiments.Table5Row
	spans map[string]float64
}

// tablesWorkers is the experiment pool width: the host has two CPUs.
const tablesWorkers = 2

// paperTable5Overall holds the paper's Table 5 overall prediction rates
// (percent) by app and depth 1-4, as listed in EXPERIMENTS.md.
var paperTable5Overall = map[string][4]float64{
	"appbt":        {84, 85, 85, 85},
	"barnes":       {62, 69, 69, 68},
	"dsmc":         {84, 86, 93, 93},
	"moldyn":       {86, 86, 85, 84},
	"unstructured": {74, 88, 89, 92},
}

func newTables(e env) runner {
	cfg := experiments.DefaultConfig()
	cfg.Workers = tablesWorkers
	t := &tables{env: e, cfg: cfg}
	t.expected, t.readErr = expectedTables(filepath.Join(e.root, "docs", "RESULTS.txt"))
	return t
}

// expectedTables returns the non-blank lines of Tables 5-8 in the
// committed results file: from the "TABLE 5." heading up to the next
// section after Table 8.
func expectedTables(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []string
	in := false
	for _, l := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(l, "TABLE 5."):
			in = true
		case in && (strings.HasPrefix(l, "FIGURE") || strings.HasPrefix(l, "TABLE 9")):
			return out, nil
		}
		if in && strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	if !in {
		return nil, fmt.Errorf("%s holds no TABLE 5 section", path)
	}
	return out, nil
}

// setup builds the suite, and separately the five apps and machines the
// suite will build before each capture's first event, so their cost is
// measured apart from the simulation.
func (t *tables) setup() error {
	t.suite = experiments.NewSuite(t.cfg)
	for _, name := range t.suite.Apps() {
		app, err := workload.ByName(name, t.cfg.Machine.Nodes, t.cfg.Scale)
		if err != nil {
			return err
		}
		if _, err := machine.New(t.cfg.Machine, t.cfg.Stache, app); err != nil {
			return err
		}
	}
	return nil
}

func (t *tables) run(tr *Tracer) error {
	t.out.Reset()
	t.spans = map[string]float64{}
	var err error
	if t.spans["experiments.capture_s"], err = tr.span("experiments.capture", t.suite.Prefetch); err != nil {
		return err
	}
	steps := []struct {
		name   string
		render func(io.Writer) error
	}{
		{"table5", func(w io.Writer) error {
			rows, err := experiments.Table5(t.suite)
			t.rows5 = rows
			report.Table5(w, rows)
			return err
		}},
		{"table6", func(w io.Writer) error {
			rows, err := experiments.Table6(t.suite)
			report.Table6(w, rows)
			return err
		}},
		{"table7", func(w io.Writer) error {
			rows, err := experiments.Table7(t.suite)
			report.Table7(w, rows)
			return err
		}},
		{"table8", func(w io.Writer) error {
			cells, err := experiments.Table8(t.suite)
			report.Table8(w, cells)
			return err
		}},
	}
	for _, s := range steps {
		d, err := tr.span("experiments."+s.name, func() error { return s.render(&t.out) })
		if err != nil {
			return err
		}
		t.spans["experiments."+s.name+"_s"] = d
		fmt.Fprintln(&t.out)
	}
	return nil
}

func (t *tables) check() checkResult {
	return checkTables(t.out.String(), t.expected, t.readErr)
}

// checkTables compares the rendered tables with the expected lines,
// blank lines ignored. Each expected line is one op.
func checkTables(got string, expected []string, readErr error) checkResult {
	var c checkResult
	if readErr != nil {
		c.add(false, "expected tables: %v", readErr)
		return c
	}
	var lines []string
	for _, l := range strings.Split(got, "\n") {
		if strings.TrimSpace(l) != "" {
			lines = append(lines, l)
		}
	}
	for i, want := range expected {
		ok := i < len(lines) && lines[i] == want
		c.add(ok, "table line %d: got %q, want %q", i+1, at(lines, i), want)
	}
	if len(lines) > len(expected) {
		c.add(false, "%d unexpected extra table lines", len(lines)-len(expected))
	}
	return c
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<missing>"
}

// table5Summary returns the mean absolute error of the 20 Table 5
// overall cells against the paper and the mean depth-1 overall accuracy.
func table5Summary(rows []experiments.Table5Row) (mae, depth1 float64) {
	var sumErr, sum1 float64
	var n, n1 int
	for _, r := range rows {
		paper, ok := paperTable5Overall[r.App]
		if !ok || r.Depth < 1 || r.Depth > 4 {
			continue
		}
		sumErr += math.Abs(r.Overall - paper[r.Depth-1])
		n++
		if r.Depth == 1 {
			sum1 += r.Overall
			n1++
		}
	}
	return sumErr / math.Max(1, float64(n)), sum1 / math.Max(1, float64(n1))
}

func (t *tables) records() (uint64, error) {
	var n uint64
	for _, name := range t.suite.Apps() {
		tr, err := t.suite.Trace(name)
		if err != nil {
			return 0, err
		}
		n += uint64(len(tr.Records))
	}
	return n, nil
}

func (t *tables) results() (map[string]float64, map[string]float64) {
	mae, acc := table5Summary(t.rows5)
	recs, _ := t.records() // cannot fail: the run captured every trace
	evalS := t.spans["experiments.table5_s"] + t.spans["experiments.table6_s"] +
		t.spans["experiments.table7_s"] + t.spans["experiments.table8_s"]
	det := map[string]float64{
		"table5_mae_pts": mae,
		"accuracy_pct":   acc,
		"stats.records":  float64(recs),
		"trace.records":  float64(recs),
	}
	timing := map[string]float64{
		"records_per_s": float64(recs) / evalS,
		"stats.eval_s":  evalS,
	}
	for k, v := range t.spans {
		timing[k] = v
	}
	return det, timing
}

// probe re-simulates the five apps outside the suite to read the layer
// counters the suite does not expose (each re-simulation must yield the
// suite's record count), replays the records into bare predictors, and
// times the three evaluation paths over the moldyn trace.
func (t *tables) probe() (map[string]float64, error) {
	out := map[string]float64{}
	var c counters
	for _, name := range t.suite.Apps() {
		app, err := workload.ByName(name, t.cfg.Machine.Nodes, t.cfg.Scale)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		m, err := machine.New(t.cfg.Machine, t.cfg.Stache, app)
		if err != nil {
			return nil, err
		}
		out["machine.new_s"] += time.Since(start).Seconds()
		rec := trace.NewRecorder(app.Name(), t.cfg.Machine.Nodes, app.PhasesPerIteration(), 0)
		m.AddObserver(rec)
		start = time.Now()
		if err := m.Run(maxSimEvents); err != nil {
			return nil, err
		}
		out["machine.run_s"] += time.Since(start).Seconds()
		c.addMachine(m)
		want, err := t.suite.Trace(name)
		if err != nil {
			return nil, err
		}
		if got := len(rec.Trace().Records); got != len(want.Records) {
			return nil, fmt.Errorf("re-simulating %s gave %d records, the suite captured %d", name, got, len(want.Records))
		}
		gen, n := generate(app)
		out["workload.gen_s"] += gen
		if n != m.Accesses() {
			return nil, fmt.Errorf("%s: generated %d accesses, the machine completed %d", name, n, m.Accesses())
		}
	}
	c.into(out)

	for _, name := range t.suite.Apps() {
		tr, err := t.suite.Trace(name)
		if err != nil {
			return nil, err
		}
		r, err := newReplayer(core.Config{Depth: 1}, tr.Nodes)
		if err != nil {
			return nil, err
		}
		r.feed(tr.Records)
		r.into(out)
	}

	moldyn, err := t.suite.Trace("moldyn")
	if err != nil {
		return nil, err
	}
	moldyn.Partition() // memoized; built outside the timed region
	pcfg := core.Config{Depth: 2}
	paths := []struct {
		name string
		eval func() (*stats.Result, error)
	}{
		{"stats.eval_serial_s", func() (*stats.Result, error) { return stats.Evaluate(moldyn, pcfg, stats.Options{Workers: 1}) }},
		{"stats.eval_sharded_s", func() (*stats.Result, error) { return stats.Evaluate(moldyn, pcfg, stats.Options{Workers: 2}) }},
		{"stats.eval_stream_s", func() (*stats.Result, error) {
			return stats.EvaluateStream(&sliceSource{recs: moldyn.Records}, moldyn.App, moldyn.Nodes, pcfg, stats.StreamOptions{})
		}},
	}
	// Round-robin repetitions, median per path, so no path is favoured
	// by running first or last.
	times := make([][]float64, len(paths))
	var first *stats.Result
	for rep := 0; rep < evalPathReps; rep++ {
		for i, p := range paths {
			start := time.Now()
			res, err := p.eval()
			if err != nil {
				return nil, err
			}
			times[i] = append(times[i], time.Since(start).Seconds())
			if first == nil {
				first = res
			} else if res.Overall != first.Overall || res.Memory != first.Memory {
				return nil, fmt.Errorf("%s disagrees with the serial path on moldyn: %+v vs %+v", p.name, res.Overall, first.Overall)
			}
		}
	}
	for i, p := range paths {
		out[p.name] = median(times[i])
	}
	return out, nil
}

// evalPathReps is how many times the probe times each evaluation path.
const evalPathReps = 3

func (t *tables) cleanup() {}

// sliceSource is an in-memory stats.RecordSource.
type sliceSource struct {
	recs []trace.Record
}

func (s *sliceSource) Next(buf []trace.Record) (int, error) {
	if len(s.recs) == 0 {
		return 0, io.EOF
	}
	n := copy(buf, s.recs)
	s.recs = s.recs[n:]
	return n, nil
}
