package stats

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/trace"
)

// messyTrace builds a pseudo-random multi-node, multi-block trace that
// exercises every aggregate: both sides, writebacks, several
// iterations, repeated arcs.
func messyTrace(nodes, records int) *trace.Trace {
	rng := rand.New(rand.NewSource(7))
	types := []coherence.MsgType{
		coherence.GetROReq, coherence.GetROResp, coherence.GetRWReq,
		coherence.GetRWResp, coherence.InvalRWResp, coherence.WritebackAck,
	}
	tr := &trace.Trace{App: "messy", Nodes: nodes}
	for i := 0; i < records; i++ {
		iter := int32(i * 8 / records)
		tr.Records = append(tr.Records, trace.Record{
			Node:   coherence.NodeID(rng.Intn(nodes)),
			Side:   trace.Side(rng.Intn(2)),
			Sender: coherence.NodeID(rng.Intn(nodes)),
			Type:   types[rng.Intn(len(types))],
			Addr:   coherence.Addr(uint64(rng.Intn(16)) * 64),
			Iter:   iter,
		})
		if int(iter)+1 > tr.Iterations {
			tr.Iterations = int(iter) + 1
		}
	}
	return tr
}

// sliceSource is an in-memory RecordSource over a record slice.
type sliceSource struct{ recs []trace.Record }

func (s *sliceSource) Next(buf []trace.Record) (int, error) {
	if len(s.recs) == 0 {
		return 0, io.EOF
	}
	n := copy(buf, s.recs)
	s.recs = s.recs[n:]
	return n, nil
}

// TestEvaluateMatchesStreamReference pins Evaluate's per-slot walk to
// the arrival-order reference (EvaluateStream) at every pool width,
// with arc tracking, an iteration cap and forget-on-writeback on
// together.
func TestEvaluateMatchesStreamReference(t *testing.T) {
	tr := messyTrace(5, 4000)
	// Iterations running backwards leave each slot's last record at
	// iteration 0, so every slot outgrows its initial PerIter capacity.
	backwards := messyTrace(5, 4000)
	for i := range backwards.Records {
		backwards.Records[i].Iter = int32(backwards.Iterations-1) - backwards.Records[i].Iter
	}
	all := Options{TrackArcs: true, MaxIterations: 5, ForgetOnWriteback: true}
	for _, opts := range []Options{{}, {TrackArcs: true}, all} {
		for depth := 1; depth <= 3; depth++ {
			checkAgainstStream(t, tr, core.Config{Depth: depth}, opts)
			checkAgainstStream(t, backwards, core.Config{Depth: depth}, opts)
		}
	}
	// The options must each change the result, or the equivalence
	// above would not be exercising them.
	base, err := Evaluate(tr, core.Config{Depth: 2}, Options{TrackArcs: true, MaxIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	forget, err := Evaluate(tr, core.Config{Depth: 2}, all)
	if err != nil {
		t.Fatal(err)
	}
	if base.Overall == forget.Overall {
		t.Error("ForgetOnWriteback left the messy trace's accuracy unchanged")
	}
	if len(forget.PerIter) != 5 || len(forget.Arcs) == 0 {
		t.Errorf("MaxIterations/TrackArcs not in effect: %d iterations, %d arcs", len(forget.PerIter), len(forget.Arcs))
	}
}

// checkAgainstStream requires Evaluate at pool widths 0/1/2/8 to
// DeepEqual EvaluateStream over the same records.
func checkAgainstStream(t *testing.T, tr *trace.Trace, cfg core.Config, opts Options) {
	t.Helper()
	want, err := EvaluateStream(&sliceSource{recs: tr.Records}, tr.App, tr.Nodes, cfg, StreamOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 8} {
		o := opts
		o.Workers = workers
		got, err := Evaluate(tr, cfg, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("opts %+v depth %d workers %d: Evaluate diverges from the arrival-order walk:\n%+v\n%+v",
				opts, cfg.Depth, workers, got, want)
		}
	}
}

// TestEvaluateStreamMatchesSerial pins the streaming contract: a
// windowed evaluation over the encoded stream produces a Result
// identical to Evaluate over the materialized trace, for window sizes
// that split records at every awkward boundary.
func TestEvaluateStreamMatchesSerial(t *testing.T) {
	tr := messyTrace(5, 4000)
	cfg := core.Config{Depth: 2}
	opts := Options{TrackArcs: true, ForgetOnWriteback: true}
	want, err := Evaluate(tr, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := trace.Write(&enc, tr); err != nil {
		t.Fatal(err)
	}
	for _, win := range []int{1, 7, 4000, 10000} {
		sr, err := trace.NewStreamReader(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		windows := 0
		got, err := EvaluateStream(sr, sr.App(), sr.Nodes(), cfg, StreamOptions{
			Options:    opts,
			WindowSize: win,
			OnWindow:   func(int) { windows++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("window %d: streaming result diverges from serial", win)
		}
		if wantWindows := (len(tr.Records) + win - 1) / win; windows != wantWindows {
			t.Errorf("window %d: OnWindow ran %d times, want %d", win, windows, wantWindows)
		}
	}
}

// TestEvaluateStreamMaxIterations checks the windowed path honors the
// iteration cutoff the same way Evaluate does.
func TestEvaluateStreamMaxIterations(t *testing.T) {
	tr := messyTrace(3, 800)
	cfg := core.Config{Depth: 1}
	opts := Options{MaxIterations: 3}
	want, err := Evaluate(tr, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := trace.Write(&enc, tr); err != nil {
		t.Fatal(err)
	}
	sr, err := trace.NewStreamReader(bytes.NewReader(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvaluateStream(sr, sr.App(), sr.Nodes(), cfg, StreamOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("streaming MaxIterations result diverges from serial")
	}
}

// TestEvaluateStreamRejectsOutOfRangeNode guards against a source
// whose records disagree with its claimed node count.
func TestEvaluateStreamRejectsOutOfRangeNode(t *testing.T) {
	tr := messyTrace(4, 32)
	var enc bytes.Buffer
	if err := trace.Write(&enc, tr); err != nil {
		t.Fatal(err)
	}
	sr, err := trace.NewStreamReader(bytes.NewReader(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateStream(sr, "messy", 2, core.Config{Depth: 1}, StreamOptions{}); err == nil {
		t.Fatal("accepted records beyond the declared node count")
	}
}
