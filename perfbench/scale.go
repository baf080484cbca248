package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/experiments"
	"github.com/cosmos-coherence/cosmos/internal/machine"
	"github.com/cosmos-coherence/cosmos/internal/stache"
	"github.com/cosmos-coherence/cosmos/internal/stats"
	"github.com/cosmos-coherence/cosmos/internal/trace"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// scale is one streamed scalesweep cell: dsmc at medium scale on 1024
// nodes with limited-pointer directories on a mesh, depth-1 predictor.
// The benchmark captures the trace itself, into an unlinked temporary
// file as Suite.EvaluateStreamed does, so capture and evaluation are
// separate spans and the trace is in the page cache, not the resident
// set.
type scale struct {
	env
	cfg experiments.Config

	app   workload.App
	m     *machine.Machine
	f     *os.File // this iteration's trace file
	prev  *os.File // the previous iteration's, closed by check
	w     *trace.StreamWriter
	bytes int64
	newS  float64
	res   *stats.Result
	spans map[string]float64
}

// The cell's pinned results: Suite.EvaluateStreamed on the same
// configuration observes exactly this many messages at this depth-1
// accuracy (percent, one decimal). All-to-all gives 4,554,196 messages,
// so the count also shows the mesh is in effect.
const (
	scaleMessages    = 4_554_140
	scaleAccuracyPct = 95.6
)

func newScale(e env) runner {
	cfg := experiments.DefaultConfig()
	cfg.Scale = workload.ScaleMedium
	cfg.Machine.Nodes = 1024
	cfg.Machine.Topology = "mesh"
	cfg.Stache.DirFormat = stache.DirLimitedPtr
	return &scale{env: e, cfg: cfg}
}

func (s *scale) setup() error {
	app, err := workload.ByName("dsmc", s.cfg.Machine.Nodes, s.cfg.Scale)
	if err != nil {
		return err
	}
	start := time.Now()
	m, err := machine.New(s.cfg.Machine, s.cfg.Stache, app)
	if err != nil {
		return err
	}
	s.newS = time.Since(start).Seconds()
	s.app, s.m = app, m
	return nil
}

func (s *scale) run(tr *Tracer) error {
	s.spans = map[string]float64{}
	var err error
	s.spans["machine.run_s"], err = tr.span("machine.run", s.capture)
	if err != nil {
		return err
	}
	s.spans["stats.eval_s"], err = tr.span("stats.evaluate_stream", func() error {
		sr, err := trace.NewStreamReader(s.reader())
		if err != nil {
			return err
		}
		s.res, err = stats.EvaluateStream(sr, sr.App(), sr.Nodes(), core.Config{Depth: 1}, stats.StreamOptions{})
		return err
	})
	return err
}

// capture runs the machine with a stream recorder writing into a fresh
// temporary file, unlinked at once so nothing outlives the process.
func (s *scale) capture() error {
	f, err := os.CreateTemp(s.tmp, "scale-*.trace")
	if err != nil {
		return err
	}
	os.Remove(f.Name())
	s.prev, s.f = s.f, f
	w, err := trace.NewStreamWriter(f, s.app.Name(), s.cfg.Machine.Nodes)
	if err != nil {
		return err
	}
	rec := trace.NewStreamRecorder(w, s.app.PhasesPerIteration(), 0)
	s.m.AddObserver(rec)
	if err := s.m.Run(maxSimEvents); err != nil {
		return err
	}
	if err := rec.Close(); err != nil {
		return err
	}
	s.w = w
	s.bytes, err = f.Seek(0, io.SeekEnd)
	return err
}

// reader returns a reader over the whole captured file.
func (s *scale) reader() io.Reader { return io.NewSectionReader(s.f, 0, s.bytes) }

func (s *scale) check() checkResult {
	// Dropping the previous trace frees its page cache, outside the
	// timed parts.
	if s.prev != nil {
		s.prev.Close()
		s.prev = nil
	}
	return checkScale(s.res.Overall.Total, 100*s.res.Overall.Accuracy())
}

// checkScale is one op: the cell's message count and accuracy.
func checkScale(messages uint64, accPct float64) checkResult {
	var c checkResult
	c.add(messages == scaleMessages && math.Round(accPct*10)/10 == scaleAccuracyPct,
		"scale cell: %d messages at %.1f%%, want %d at %.1f%%", messages, accPct, uint64(scaleMessages), scaleAccuracyPct)
	return c
}

func (s *scale) results() (map[string]float64, map[string]float64) {
	det := map[string]float64{
		"accuracy_pct":  100 * s.res.Overall.Accuracy(),
		"sim_time_ms":   float64(s.m.Engine().Now()) / 1e6,
		"stats.records": float64(s.res.Overall.Total),
		"trace.records": float64(s.w.Count()),
	}
	det["trace.bytes"] = float64(s.bytes)
	var c counters
	c.addMachine(s.m)
	c.into(det)
	timing := map[string]float64{
		"machine.new_s":    s.newS,
		"records_per_s":    float64(s.res.Overall.Total) / s.spans["stats.eval_s"],
		"sim_events_per_s": float64(s.m.Engine().Fired()) / s.spans["machine.run_s"],
	}
	for k, v := range s.spans {
		timing[k] = v
	}
	return det, timing
}

// probe times the trace reader alone over the last captured file, then
// replays the file's records into bare depth-1 predictors, and times
// the workload generator over the app.
func (s *scale) probe() (map[string]float64, error) {
	out := map[string]float64{}
	records := func(visit func([]trace.Record)) error {
		sr, err := trace.NewStreamReader(s.reader())
		if err != nil {
			return err
		}
		buf := make([]trace.Record, stats.DefaultWindowSize)
		for {
			n, err := sr.Next(buf)
			visit(buf[:n])
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
		}
	}
	var n uint64
	start := time.Now()
	if err := records(func(r []trace.Record) { n += uint64(len(r)) }); err != nil {
		return nil, err
	}
	out["trace.decode_s"] = time.Since(start).Seconds()
	if n != s.w.Count() {
		return nil, fmt.Errorf("decoded %d records, wrote %d", n, s.w.Count())
	}
	r, err := newReplayer(core.Config{Depth: 1}, s.cfg.Machine.Nodes)
	if err != nil {
		return nil, err
	}
	if err := records(r.feed); err != nil {
		return nil, err
	}
	r.into(out)
	var gen uint64
	out["workload.gen_s"], gen = generate(s.app)
	if gen != s.m.Accesses() {
		return nil, fmt.Errorf("generated %d accesses, the machine completed %d", gen, s.m.Accesses())
	}
	return out, nil
}

func (s *scale) cleanup() {
	for _, f := range []*os.File{s.prev, s.f} {
		if f != nil {
			f.Close()
		}
	}
}
