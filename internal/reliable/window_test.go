package reliable

import (
	"fmt"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/faults"
	"github.com/cosmos-coherence/cosmos/internal/network"
	"github.com/cosmos-coherence/cosmos/internal/sim"
)

// inflightSeqs renders Inflight as "src>dst:tseq/retries" in order.
func inflightSeqs(tr *Transport) string {
	var out []string
	for _, f := range tr.Inflight() {
		out = append(out, fmt.Sprintf("%d>%d:%d/%d", f.Src, f.Dst, f.TSeq, f.Retries))
	}
	return fmt.Sprint(out)
}

// TestWindowEdges drives one link's sender and receiver windows by
// hand, handing frames and acks to the transport directly in an order
// a faulty wire could produce: frames ahead of a gap, a duplicate of a
// held frame, a gap whose fill drains several held frames, a stale
// cumulative ack below the window, a duplicate of a released frame, an
// ack at the last sent frame, and retransmit timers that fire for
// acknowledged and unacknowledged frames. The expected Inflight order,
// Undelivered counts and statistics are those of the original
// map-based transport.
func TestWindowEdges(t *testing.T) {
	_, _, tr := harness(t, faults.Plan{}, 0)
	var got []coherence.Addr
	tr.Bind(1, func(m coherence.Msg) { got = append(got, m.Addr) })
	tr.Bind(0, func(coherence.Msg) {})
	msg := func(i int) coherence.Msg {
		return coherence.Msg{Src: 0, Dst: 1, Type: coherence.GetROReq, Addr: coherence.Addr(i * 64)}
	}
	frame := func(ts int) { tr.receive(network.Packet{Src: 0, Dst: 1, Msg: msg(ts), TSeq: uint64(ts)}) }
	ack := func(ts int) { tr.receive(network.Packet{Src: 1, Dst: 0, Ctrl: true, TSeq: uint64(ts)}) }
	check := func(step, inflight string, undelivered int, delivered ...int) {
		t.Helper()
		if s := inflightSeqs(tr); s != inflight {
			t.Fatalf("%s: Inflight = %s, want %s", step, s, inflight)
		}
		if n := tr.Undelivered(); n != undelivered {
			t.Fatalf("%s: Undelivered = %d, want %d", step, n, undelivered)
		}
		var want []coherence.Addr
		for _, i := range delivered {
			want = append(want, coherence.Addr(i*64))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: delivered %v, want %v", step, got, want)
		}
	}

	for i := 1; i <= 5; i++ {
		tr.Send(msg(i))
	}
	check("sent 1..5", "[0>1:1/0 0>1:2/0 0>1:3/0 0>1:4/0 0>1:5/0]", 5)
	frame(3)
	frame(5)
	frame(3) // duplicate of a held frame
	check("held 3,5", "[0>1:1/0 0>1:2/0 0>1:3/0 0>1:4/0 0>1:5/0]", 5)
	frame(1)
	check("released 1", "[0>1:1/0 0>1:2/0 0>1:3/0 0>1:4/0 0>1:5/0]", 4, 1)
	frame(2) // fills the gap, drains 3, stops at the hole at 4
	check("released 2,3", "[0>1:1/0 0>1:2/0 0>1:3/0 0>1:4/0 0>1:5/0]", 2, 1, 2, 3)
	ack(2)
	check("ack 2", "[0>1:3/0 0>1:4/0 0>1:5/0]", 2, 1, 2, 3)
	ack(1) // stale: below the window
	check("stale ack 1", "[0>1:3/0 0>1:4/0 0>1:5/0]", 2, 1, 2, 3)
	tr.timerFired(tr.linkFor(0, 1), 2) // acknowledged: no retransmit
	tr.timerFired(tr.linkFor(0, 1), 4)
	check("retx 4", "[0>1:3/0 0>1:4/1 0>1:5/0]", 2, 1, 2, 3)
	frame(4) // drains the held 5
	frame(4) // duplicate of a released frame
	check("released 4,5", "[0>1:3/0 0>1:4/1 0>1:5/0]", 0, 1, 2, 3, 4, 5)
	ack(5) // ack at nextSend empties the window
	check("ack 5", "[]", 0, 1, 2, 3, 4, 5)
	tr.timerFired(tr.linkFor(0, 1), 5)
	tr.Send(msg(6))
	tr.Send(coherence.Msg{Src: 1, Dst: 0, Type: coherence.GetROReq, Addr: 64})
	check("sent 6", "[0>1:6/0 1>0:1/0]", 2, 1, 2, 3, 4, 5)

	st := tr.Stats()
	if st.DataSent != 7 || st.Retransmits != 1 || st.Delivered != 5 ||
		st.DupsDiscarded != 2 || st.HeldOutOfOrder != 2 || st.AcksRecv != 3 || st.AcksSent != 7 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestWindowDeepReorder holds a long run of frames behind a single
// missing one, with every held frame also arriving twice, then fills
// the gap: the whole run must release in order in one drain.
func TestWindowDeepReorder(t *testing.T) {
	_, _, tr := harness(t, faults.Plan{}, 0)
	var got []coherence.Addr
	tr.Bind(1, func(m coherence.Msg) { got = append(got, m.Addr) })
	const n = 300
	for ts := n; ts >= 2; ts-- {
		for k := 0; k < 2; k++ {
			tr.receive(network.Packet{Src: 0, Dst: 1, TSeq: uint64(ts), Msg: coherence.Msg{Addr: coherence.Addr(ts)}})
		}
	}
	if len(got) != 0 {
		t.Fatalf("released %d frames ahead of the gap", len(got))
	}
	tr.receive(network.Packet{Src: 0, Dst: 1, TSeq: 1, Msg: coherence.Msg{Addr: 1}})
	if len(got) != n {
		t.Fatalf("released %d frames, want %d", len(got), n)
	}
	for i, a := range got {
		if a != coherence.Addr(i+1) {
			t.Fatalf("release %d = %d, want %d", i, a, i+1)
		}
	}
	if st := tr.Stats(); st.HeldOutOfOrder != n-1 || st.DupsDiscarded != n-1 {
		t.Fatalf("stats = %+v, want %d held and %d duplicates", st, n-1, n-1)
	}
}

// benchSendAck sends frames on one link and acknowledges them
// cumulatively every four frames, handing frames and acks to the
// transport directly; the wire is blacked out both ways so the copies
// it would deliver never arrive and only the (by then acknowledged)
// retransmit timers fire when the engine drains. With reorder set the
// receiver sees each group of four frames in reverse, so three of four
// wait in the reorder window before the group drains.
func benchSendAck(b *testing.B, reorder bool) {
	e := &sim.Engine{}
	cfg := sim.DefaultConfig()
	cfg.Faults = faults.Plan{Blackouts: []faults.Blackout{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}}}
	nw, err := network.New(e, cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr := New(e, nw, cfg)
	tr.Bind(0, func(coherence.Msg) {})
	tr.Bind(1, func(coherence.Msg) {})
	m := coherence.Msg{Src: 0, Dst: 1, Type: coherence.GetROReq, Addr: 64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 4 {
		base := uint64(i)
		for k := uint64(1); k <= 4; k++ {
			tr.Send(m)
		}
		for k := uint64(1); k <= 4; k++ {
			ts := base + k
			if reorder {
				ts = base + 5 - k
			}
			tr.receive(network.Packet{Src: 0, Dst: 1, Msg: m, TSeq: ts})
		}
		tr.receive(network.Packet{Src: 1, Dst: 0, Ctrl: true, TSeq: base + 4})
		if e.Pending() > 1<<12 {
			for e.Step() {
			}
		}
	}
}

// BenchmarkSendAck measures the per-frame cost of the transport's
// bookkeeping: sequencing, the sender window, in-order release or
// reorder hold, and the cumulative ack that trims the window.
func BenchmarkSendAck(b *testing.B) {
	b.Run("inorder", func(b *testing.B) { benchSendAck(b, false) })
	b.Run("reorder", func(b *testing.B) { benchSendAck(b, true) })
}
