package stats

import (
	"fmt"
	"io"
	"sync"

	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/trace"
)

// DefaultWindowSize is the streaming evaluation window: 64Ki records
// (~1.1 MiB of Record structs) — large enough to amortize the window
// recycling, small enough that peak evaluation memory is dominated by
// predictor state, not trace storage, at any node count.
const DefaultWindowSize = 64 * 1024

// RecordSource yields trace records in arrival order, in bounded
// chunks. *trace.StreamReader implements it; tests substitute
// synthetic sources.
type RecordSource interface {
	// Next fills buf with up to len(buf) records and returns how many
	// it wrote. It returns io.EOF (with n == 0) once the source is
	// drained and verified.
	Next(buf []trace.Record) (int, error)
}

// StreamOptions tunes a streaming evaluation. The embedded
// Options.Workers field is ignored: the streaming path is the serial
// arrival-order walk, windowed.
type StreamOptions struct {
	Options
	// WindowSize bounds how many records are resident at once
	// (DefaultWindowSize when <= 0).
	WindowSize int
	// OnWindow, if set, runs after each window is evaluated with the
	// number of records it held. The memory-flatness tests use it to
	// sample peak RSS mid-evaluation.
	OnWindow func(records int)
}

// windowPool recycles record windows across streaming evaluations, so
// a sweep over many (trace, config) cells allocates its window once.
var windowPool sync.Pool

func borrowWindow(n int) []trace.Record {
	if v := windowPool.Get(); v != nil {
		if buf := v.([]trace.Record); cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]trace.Record, n)
}

func releaseWindow(buf []trace.Record) {
	windowPool.Put(buf[:cap(buf)])
}

// EvaluateStream runs the arrival-order evaluation over a record
// stream without ever materializing the trace: at most one
// WindowSize-record window (recycled through a pool) plus the per-slot
// predictor state is resident, which is what keeps peak evaluation RSS
// flat as node count (and with it trace length) grows. It feeds every
// record through the same per-record body as Evaluate's per-slot walk,
// and for the same records it produces an identical Result; being the
// plain arrival-order walk, it is the reference the equivalence
// regression tests compare Evaluate against.
//
// app and nodes come from the stream's header
// (trace.StreamReader.App/Nodes) or from the machine that is being
// captured live.
func EvaluateStream(src RecordSource, app string, nodes int, cfg core.Config, opts StreamOptions) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("stats: streaming evaluation needs a positive node count, got %d", nodes)
	}
	win := opts.WindowSize
	if win <= 0 {
		win = DefaultWindowSize
	}
	// One predictor per (node, side), borrowed from the shared pool (a
	// reset predictor is state-identical to a fresh one).
	slots := make([]predSlot, 2*nodes)
	for i := range slots {
		var err error
		if slots[i], err = newPredSlot(trace.Side(i%2), cfg, opts.Options); err != nil {
			return nil, err
		}
	}
	ev := evaluator{res: newResult(app, cfg, opts.Options), opts: opts.Options}
	buf := borrowWindow(win)
	defer releaseWindow(buf)
	for {
		n, err := src.Next(buf)
		for i := range buf[:n] {
			rec := &buf[i]
			if int(rec.Node) >= nodes {
				return nil, fmt.Errorf("stats: record references node %d of %d", rec.Node, nodes)
			}
			ev.observe(&slots[trace.SlotIndex(int(rec.Node), rec.Side)], rec)
		}
		if opts.OnWindow != nil && n > 0 {
			opts.OnWindow(n)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	for i := range slots {
		ev.retire(&slots[i])
	}
	return &ev.res, nil
}
