// Package stats evaluates predictors over captured traces and
// aggregates the accuracy accounting the paper's tables and figures
// report: overall / cache-side / directory-side prediction rates
// (Table 5), per-arc accuracy and reference shares (Figures 6-7,
// Table 8), per-iteration adaptation series (Section 6.2), and
// predictor memory consumption (Table 7).
//
// Accuracy convention (used consistently everywhere): a prediction is
// a hit iff both predicted sender and type match the actual next
// message for that block at that predictor; "no prediction" (cold
// block, unseen pattern) counts as a miss.
package stats

import (
	"sort"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/parallel"
	"github.com/cosmos-coherence/cosmos/internal/trace"
)

// Counter accumulates prediction outcomes.
type Counter struct {
	Total uint64
	Hits  uint64
}

func (c *Counter) add(hit bool) {
	c.Total++
	if hit {
		c.Hits++
	}
}

func (c *Counter) merge(o Counter) {
	c.Total += o.Total
	c.Hits += o.Hits
}

// Accuracy returns hits/total (0 for an empty counter).
func (c Counter) Accuracy() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Total)
}

// Arc identifies a transition between two consecutively received
// message types for a block, on one side. Figures 6 and 7 draw these
// arcs; Table 8 tracks three of dsmc's.
type Arc struct {
	Side trace.Side
	From coherence.MsgType
	To   coherence.MsgType
}

// ArcStat is the measured accuracy and reference share of one arc.
type ArcStat struct {
	Arc Arc
	Counter
	// RefShare is this arc's fraction of all references on its side
	// (the Y of the paper's X/Y arc labels).
	RefShare float64
}

// Result is the outcome of evaluating one predictor configuration over
// one trace.
type Result struct {
	App    string
	Config core.Config

	Overall Counter
	Cache   Counter
	Dir     Counter

	// PerIter[i] aggregates predictions during application iteration i.
	PerIter []Counter
	// Arcs maps each observed transition to its outcome counts.
	Arcs map[Arc]*Counter

	// Types[t] aggregates predictions for messages of type t.
	Types [coherence.NumMsgTypes]Counter

	// Memory aggregates MHR/PHT sizes over all predictors, and per side.
	Memory      core.MemoryStats
	CacheMemory core.MemoryStats
	DirMemory   core.MemoryStats
}

// Options tunes an evaluation.
type Options struct {
	// MaxIterations, if positive, stops the evaluation after that many
	// application iterations (Table 8 evaluates dsmc at 4, 80 and 320
	// iterations).
	MaxIterations int
	// TrackArcs enables per-arc accounting (Figures 6-7, Table 8).
	TrackArcs bool
	// ForgetOnWriteback models the merged-table implementation of
	// Section 3.7: when a cache-side predictor sees a block's
	// writeback acknowledged (the line was replaced), the block's
	// history and patterns are discarded. Only meaningful on traces
	// from bounded-cache runs.
	ForgetOnWriteback bool
	// Workers sets how many goroutines share Evaluate's per-(node,
	// side) slot streams; 0 or 1 walks them serially on the caller.
	// The result never depends on it: each slot is evaluated alone and
	// the per-slot results merge in fixed slot order.
	Workers int
}

// Evaluate runs one Cosmos predictor per node and side over the trace
// and aggregates the paper's metrics. The predictor placement follows
// Section 3.2: "We allocate a Cosmos predictor for every cache or
// directory in the machine." A predictor's state is only ever touched
// by records addressed to its own (node, side) slot, so Evaluate walks
// the slots of tr.Partition() independently — opts.Workers of them at
// a time — through the same per-record body as EvaluateStream, and
// merges the per-slot results in slot order. The result equals
// EvaluateStream's arrival-order walk over the same records, which the
// equivalence regression tests pin.
func Evaluate(tr *trace.Trace, cfg core.Config, opts Options) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	part := tr.Partition()
	partials, err := parallel.Map(part.Slots(), opts.Workers, func(s int) (Result, error) {
		return evaluateSlot(part.Records(s), trace.Side(s%2), cfg, opts)
	})
	if err != nil {
		return nil, err
	}
	res := newResult(tr.App, cfg, opts)
	for i := range partials {
		res.merge(&partials[i])
	}
	return &res, nil
}

// evaluateSlot evaluates one slot's sub-stream with its own predictor.
//
//cosmosvet:hotpath loops
func evaluateSlot(recs []trace.Record, side trace.Side, cfg core.Config, opts Options) (Result, error) {
	ps, err := newPredSlot(side, cfg, opts)
	if err != nil {
		return Result{}, err
	}
	ev := evaluator{res: newResult("", cfg, opts), opts: opts}
	if n := len(recs); n > 0 {
		// Iterations only advance during a capture, so the slot's last
		// record carries its highest; the record count caps what a
		// crafted iteration number can size up front.
		ev.res.PerIter = make([]Counter, 0, min(int(recs[n-1].Iter)+1, n))
	}
	for i := range recs {
		ev.observe(&ps, &recs[i])
	}
	ev.retire(&ps)
	return ev.res, nil
}

// predSlot is one (node, side) predictor and, with TrackArcs, the last
// message type it received for each block (the next arc's From).
type predSlot struct {
	p        *core.Predictor
	side     trace.Side
	lastType map[coherence.Addr]coherence.MsgType
}

func newPredSlot(side trace.Side, cfg core.Config, opts Options) (predSlot, error) {
	p, err := borrowPredictor(cfg)
	if err != nil {
		return predSlot{}, err
	}
	ps := predSlot{p: p, side: side}
	if opts.TrackArcs {
		ps.lastType = make(map[coherence.Addr]coherence.MsgType)
	}
	return ps, nil
}

// evaluator accumulates one Result from records fed to it in arrival
// order. Evaluate runs one per slot; EvaluateStream runs one over the
// whole stream. Both feed records through the one observe body.
type evaluator struct {
	res  Result
	opts Options
}

func newResult(app string, cfg core.Config, opts Options) Result {
	res := Result{App: app, Config: cfg}
	if opts.TrackArcs {
		res.Arcs = make(map[Arc]*Counter)
	}
	return res
}

// observe feeds one record through ps, its slot, and updates every
// aggregate. This is the per-record hot path.
//
//cosmosvet:hotpath
func (ev *evaluator) observe(ps *predSlot, rec *trace.Record) {
	if ev.opts.MaxIterations > 0 && int(rec.Iter) >= ev.opts.MaxIterations {
		return
	}
	res := &ev.res
	p := ps.p
	_, _, correct := p.Observe(rec.Addr, rec.Tuple())
	if ev.opts.ForgetOnWriteback && rec.Side == trace.CacheSide && rec.Type == coherence.WritebackAck {
		p.Forget(rec.Addr)
	}

	res.Overall.add(correct)
	if rec.Side == trace.CacheSide {
		res.Cache.add(correct)
	} else {
		res.Dir.add(correct)
	}
	res.Types[rec.Type].add(correct)
	for int(rec.Iter) >= len(res.PerIter) {
		//cosmosvet:allow hotpath grows once to the trace's iteration count, then never again
		res.PerIter = append(res.PerIter, Counter{})
	}
	res.PerIter[rec.Iter].add(correct)

	if ev.opts.TrackArcs {
		if from, ok := ps.lastType[rec.Addr]; ok {
			arc := Arc{Side: rec.Side, From: from, To: rec.Type}
			c := res.Arcs[arc]
			if c == nil {
				//cosmosvet:allow hotpath one counter per distinct arc, first sighting only
				c = &Counter{}
				res.Arcs[arc] = c
			}
			c.add(correct)
		}
		ps.lastType[rec.Addr] = rec.Type
	}
}

// retire folds a finished slot's predictor memory stats into the
// result and returns the predictor to the pool.
func (ev *evaluator) retire(ps *predSlot) {
	ev.res.Memory.Add(ps.p)
	if ps.side == trace.CacheSide {
		ev.res.CacheMemory.Add(ps.p)
	} else {
		ev.res.DirMemory.Add(ps.p)
	}
	releasePredictor(ps.p)
}

// merge folds a partial result (one slot's) into r, consuming o. Every
// field is a sum, so the merged totals equal one walk over all the
// records.
func (r *Result) merge(o *Result) {
	r.Overall.merge(o.Overall)
	r.Cache.merge(o.Cache)
	r.Dir.merge(o.Dir)
	for t := range o.Types {
		r.Types[t].merge(o.Types[t])
	}
	if r.PerIter == nil {
		// A partial is spent once merged, so the first non-empty one's
		// array is taken over rather than copied.
		r.PerIter, o.PerIter = o.PerIter, nil
	}
	if n := len(o.PerIter); n > len(r.PerIter) {
		r.PerIter = append(r.PerIter, make([]Counter, n-len(r.PerIter))...)
	}
	for i, c := range o.PerIter {
		r.PerIter[i].merge(c)
	}
	// The map range only accumulates into keyed counters, so its order
	// cannot change the result.
	for arc, c := range o.Arcs {
		rc := r.Arcs[arc]
		if rc == nil {
			rc = &Counter{}
			r.Arcs[arc] = rc
		}
		rc.merge(*c)
	}
	addMemory(&r.Memory, o.Memory)
	addMemory(&r.CacheMemory, o.CacheMemory)
	addMemory(&r.DirMemory, o.DirMemory)
}

func addMemory(m *core.MemoryStats, o core.MemoryStats) {
	m.MHREntries += o.MHREntries
	m.PHTEntries += o.PHTEntries
}

// DominantArcs returns the side's arcs sorted by descending reference
// count, with RefShare computed against all of that side's arc
// references, truncated to at most n entries (n <= 0 means all). This
// is the data behind Figures 6 and 7's labelled transitions.
func (r *Result) DominantArcs(side trace.Side, n int) []ArcStat {
	var total uint64
	for arc, c := range r.Arcs {
		if arc.Side == side {
			total += c.Total
		}
	}
	var out []ArcStat
	for arc, c := range r.Arcs {
		if arc.Side != side {
			continue
		}
		s := ArcStat{Arc: arc, Counter: *c}
		if total > 0 {
			s.RefShare = float64(c.Total) / float64(total)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Counter.Total != out[j].Counter.Total {
			return out[i].Counter.Total > out[j].Counter.Total
		}
		// Deterministic tie-break on the arc itself.
		a, b := out[i].Arc, out[j].Arc
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// ArcStatFor returns the stat for one specific arc (Table 8 queries
// dsmc's three named transitions), with RefShare relative to the arc's
// side.
func (r *Result) ArcStatFor(arc Arc) (ArcStat, bool) {
	c, ok := r.Arcs[arc]
	if !ok {
		return ArcStat{Arc: arc}, false
	}
	var total uint64
	for a, cc := range r.Arcs {
		if a.Side == arc.Side {
			total += cc.Total
		}
	}
	s := ArcStat{Arc: arc, Counter: *c}
	if total > 0 {
		s.RefShare = float64(c.Total) / float64(total)
	}
	return s, true
}

// SteadyStateIteration returns the first application iteration from
// which every subsequent windowed accuracy stays within tolerance of
// the run's final windowed accuracy — the paper's "time to adapt"
// (Section 6.2) made operational. Windows are ~5% of the run (at least
// one iteration), so a long stable tail cannot mask a slow warm-up.
// It returns 0 for traces with at most one iteration.
func (r *Result) SteadyStateIteration(tolerance float64) int {
	n := len(r.PerIter)
	if n <= 1 {
		return 0
	}
	w := n / 20
	if w < 1 {
		w = 1
	}
	// windowAcc(i) = accuracy over iterations [i, i+w).
	windowAcc := func(i int) (float64, bool) {
		var c Counter
		for j := i; j < i+w && j < n; j++ {
			c.Total += r.PerIter[j].Total
			c.Hits += r.PerIter[j].Hits
		}
		if c.Total == 0 {
			return 0, false
		}
		return c.Accuracy(), true
	}
	// The converged level: accuracy over the last quarter of the run.
	var tail Counter
	for j := n - (n+3)/4; j < n; j++ {
		tail.Total += r.PerIter[j].Total
		tail.Hits += r.PerIter[j].Hits
	}
	if tail.Total == 0 {
		return 0
	}
	target := tail.Accuracy()
	// Steady state is *achieved* at the first window that reaches the
	// converged level (one-sided: later noise dips, e.g. periodic
	// re-training, do not push the achievement point out).
	for i := 0; i <= n-w; i++ {
		if acc, ok := windowAcc(i); ok && acc >= target-tolerance {
			return i
		}
	}
	return n - 1
}

// TypeStat is the prediction accuracy over messages of one type.
type TypeStat struct {
	Type coherence.MsgType
	Counter
	// Share is this type's fraction of all evaluated messages.
	Share float64
}

// ByType breaks the result down by actual message type — which kinds
// of coherence traffic Cosmos predicts well. Every evaluation path
// fills Types, so no option is needed.
func (r *Result) ByType() []TypeStat {
	var total uint64
	for _, c := range r.Types {
		total += c.Total
	}
	var out []TypeStat
	for mt := coherence.MsgType(1); mt < coherence.NumMsgTypes; mt++ {
		c := r.Types[mt]
		if c.Total == 0 {
			continue
		}
		s := TypeStat{Type: mt, Counter: c}
		if total > 0 {
			s.Share = float64(c.Total) / float64(total)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}
