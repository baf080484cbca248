// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section 6), shared by the cmd/ binaries and the
// benchmark harness. Each driver returns plain result structs; the
// report package renders them.
//
// The methodology mirrors Section 5: each benchmark is simulated once
// on the Table 3 machine running the Stache protocol, the per-node
// incoming coherence message traces are captured, and predictor
// variants are evaluated over the captured traces.
package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/machine"
	"github.com/cosmos-coherence/cosmos/internal/parallel"
	"github.com/cosmos-coherence/cosmos/internal/sim"
	"github.com/cosmos-coherence/cosmos/internal/stache"
	"github.com/cosmos-coherence/cosmos/internal/stats"
	"github.com/cosmos-coherence/cosmos/internal/trace"
	"github.com/cosmos-coherence/cosmos/internal/tracecache"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// maxSimEvents bounds any single simulation; hitting it means livelock.
const maxSimEvents = 2_000_000_000

// Config selects the machine and workload scale for a run of the
// experiment suite.
type Config struct {
	Scale   workload.Scale
	Machine sim.Config
	Stache  stache.Options
	// Workers bounds the pool the experiment drivers shard independent
	// cells — (app x depth) table cells, figure panels, sweep points —
	// over. 0 or 1 runs serially. Every width produces byte-identical
	// results; the pool changes only wall-clock time.
	Workers int
	// TraceCache, when non-empty, is a directory where captured traces
	// are persisted in CTRC form, keyed by a content hash of everything
	// that determines the trace (app, scale, machine and protocol
	// configuration, trace-format version). A hit skips the simulation
	// entirely; determinism makes the decoded trace byte-identical to a
	// fresh capture. Workers is deliberately NOT part of the key: pool
	// width never changes results.
	TraceCache string
}

// traceKey derives the cache key for one benchmark under this
// configuration. The key hashes a %#v rendering of the inputs — all
// flat structs, no maps, so the rendering is deterministic — plus the
// CTRC format version, so codec bumps invalidate stale entries instead
// of tripping the version check.
func (c Config) traceKey(app string) string {
	h := sha256.New()
	fmt.Fprintf(h, "ctrc-v%d|app=%s|scale=%d|machine=%#v|stache=%#v",
		trace.Version, app, c.Scale, c.Machine, c.Stache)
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// workerCount normalizes Workers for the drivers.
func (c Config) workerCount() int {
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

// DefaultConfig is the paper's setup: Table 3 machine, half-migratory
// Stache, full-scale workloads.
func DefaultConfig() Config {
	return Config{
		Scale:   workload.ScaleFull,
		Machine: sim.DefaultConfig(),
		Stache:  stache.DefaultOptions(),
	}
}

// Run simulates one app and captures its trace.
func Run(app workload.App, cfg Config) (*trace.Trace, error) {
	m, err := machine.New(cfg.Machine, cfg.Stache, app)
	if err != nil {
		return nil, fmt.Errorf("experiments: building machine for %s: %w", app.Name(), err)
	}
	rec := trace.NewRecorder(app.Name(), cfg.Machine.Nodes, app.PhasesPerIteration(), 0)
	m.AddObserver(rec)
	if err := m.Run(maxSimEvents); err != nil {
		return nil, fmt.Errorf("experiments: simulating %s: %w", app.Name(), err)
	}
	return rec.Trace(), nil
}

// Suite lazily generates and memoizes the five benchmark traces for a
// configuration, so the table drivers share one simulation per app,
// and memoizes every evaluation over them, so a table cell that
// several drivers report is evaluated once: Table 7 reads Table 5's
// (app, depth) cells, and Table 6's filter-0 cells, TimeToAdapt and
// the depth-1 extras are Table 5 cells too.
//
// A Suite is safe for concurrent use: the parallel experiment engine
// shards table cells and figure panels across a worker pool, and any
// number of workers may demand the same trace or the same evaluation —
// the first to arrive computes it, the rest block on the key's once.
// Each simulation runs on its own single-threaded sim.Engine with its
// own predictors, so the only shared state is the memo tables.
type Suite struct {
	cfg     Config
	workers int

	traces *memo[string, *trace.Trace]
	evals  *memo[evalKey, *stats.Result]
}

// evalKey identifies one evaluation. Options.Workers is always zero in
// a key: pool width never changes results, which the worker-invariance
// tests pin, so every width shares one memoized result.
type evalKey struct {
	app  string
	cfg  core.Config
	opts stats.Options
}

// memo computes each key's value exactly once. Concurrent callers for
// one key share one computation: the first runs it, the rest block on
// the key's once.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

func newMemo[K comparable, V any]() *memo[K, V] {
	return &memo[K, V]{m: make(map[K]*memoEntry[V])}
}

// get returns key's value, running compute on first use.
func (m *memo[K, V]) get(key K, compute func() (V, error)) (V, error) {
	m.mu.Lock()
	e, ok := m.m[key]
	if !ok {
		e = &memoEntry[V]{}
		m.m[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.v, e.err = compute() })
	return e.v, e.err
}

// NewSuite creates an empty suite; the pool width comes from
// cfg.Workers (overridable with SetWorkers).
func NewSuite(cfg Config) *Suite {
	return &Suite{
		cfg:     cfg,
		workers: cfg.workerCount(),
		traces:  newMemo[string, *trace.Trace](),
		evals:   newMemo[evalKey, *stats.Result](),
	}
}

// Fresh returns a suite with s's configuration and pool width that
// shares s's trace memo but starts with an empty evaluation memo, so
// its evaluations run again over the traces s already captured. The
// table benchmarks call it outside the timer so every timed iteration
// measures real evaluation rather than memo hits.
func (s *Suite) Fresh() *Suite {
	return &Suite{cfg: s.cfg, workers: s.workers, traces: s.traces, evals: newMemo[evalKey, *stats.Result]()}
}

// Config returns the suite's configuration.
func (s *Suite) Config() Config { return s.cfg }

// SetWorkers bounds the worker pool the experiment drivers shard their
// independent cells over (1 = serial). Results are identical for every
// width — the pool only changes wall-clock time — which the
// determinism regression tests enforce.
func (s *Suite) SetWorkers(n int) *Suite {
	if n < 1 {
		n = 1
	}
	s.workers = n
	return s
}

// Workers returns the configured pool width.
func (s *Suite) Workers() int { return s.workers }

// Apps returns the benchmark names in table order.
func (s *Suite) Apps() []string {
	return []string{"appbt", "barnes", "dsmc", "moldyn", "unstructured"}
}

// Prefetch simulates every benchmark up front on the suite's worker
// pool and memoizes the traces. The machines are independent
// single-threaded simulators, so this cuts a full-suite run's wall
// time by up to the benchmark count. Subsequent Trace calls hit the
// cache.
func (s *Suite) Prefetch() error {
	names := s.Apps()
	if err := parallel.ForEach(len(names), s.workers, func(i int) error {
		_, err := s.Trace(names[i])
		return err
	}); err != nil {
		return fmt.Errorf("experiments: prefetching: %w", err)
	}
	return nil
}

// Trace returns the memoized trace for a benchmark, simulating on
// first use. Concurrent callers for the same benchmark share one
// simulation.
func (s *Suite) Trace(name string) (*trace.Trace, error) {
	return s.traces.get(name, func() (*trace.Trace, error) { return s.capture(name) })
}

// capture loads a benchmark's trace from the trace cache, or simulates
// it and stores it there.
func (s *Suite) capture(name string) (*trace.Trace, error) {
	app, err := workload.ByName(name, s.cfg.Machine.Nodes, s.cfg.Scale)
	if err != nil {
		return nil, err
	}
	cache := tracecache.Cache{Dir: s.cfg.TraceCache}
	key := s.cfg.traceKey(name)
	if tr, ok, err := cache.Load(key); err != nil {
		// A corrupted or truncated entry fails the run loudly
		// instead of silently re-simulating: see tracecache.Load.
		return nil, err
	} else if ok {
		if tr.App != name || tr.Nodes != s.cfg.Machine.Nodes {
			return nil, fmt.Errorf("experiments: trace cache entry %s holds %s/%d nodes, want %s/%d (key collision? delete the cache dir)",
				key, tr.App, tr.Nodes, name, s.cfg.Machine.Nodes)
		}
		return tr, nil
	}
	tr, err := Run(app, s.cfg)
	if err != nil {
		return nil, err
	}
	return tr, cache.Store(key, tr)
}

// Evaluate runs a predictor configuration over a benchmark's trace,
// once per (benchmark, configuration, options) for the suite's
// lifetime. The suite's worker pool width is threaded into the
// evaluation so table drivers share each cell's slots over the pool;
// callers that set opts.Workers explicitly keep their value. The width
// is not part of the memo key, since it never changes results.
//
// The returned Result is shared by every caller that asks for the same
// cell and must be treated as read-only.
func (s *Suite) Evaluate(name string, pcfg core.Config, opts stats.Options) (*stats.Result, error) {
	key := evalKey{app: name, cfg: pcfg, opts: opts}
	key.opts.Workers = 0
	if opts.Workers == 0 {
		opts.Workers = s.workers
	}
	return s.evals.get(key, func() (*stats.Result, error) {
		tr, err := s.Trace(name)
		if err != nil {
			return nil, err
		}
		return stats.Evaluate(tr, pcfg, opts)
	})
}
