// Package reliable implements an end-to-end reliable-delivery
// transport between the coherence protocol and the lossy interconnect:
// per-link sequence numbers, receiver-side deduplication and in-order
// release, cumulative acknowledgments, and timeout-driven
// retransmission with exponential backoff and a capped retry count.
//
// The Stache protocol (internal/stache) assumes exactly-once, per-link
// FIFO delivery — the seed network provided that by construction. With
// fault injection enabled (internal/faults) the wire may drop,
// duplicate, or reorder packets; this transport restores the
// protocol's assumptions on top of the faulty wire, so the protocol
// runs unchanged. It mirrors how real distributed-shared-memory
// systems layer a reliable transport under a coherence protocol rather
// than making every protocol state machine loss-aware.
//
// The transport is only wired into the machine when the fault plan is
// enabled; on the default reliable wire it stays entirely out of the
// message flow, preserving bit-identical seed behavior.
package reliable

import (
	"fmt"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/network"
	"github.com/cosmos-coherence/cosmos/internal/sim"
)

// DefaultMaxRetries caps retransmissions of one frame before the link
// is declared dead (sim.Config.RetxMaxRetries overrides).
const DefaultMaxRetries = 12

// DefaultBackoffCapFactor derives the default retransmit-backoff cap
// from the initial timeout (sim.Config.RetxBackoffCapNs overrides).
// Uncapped, the backoff of the final default retry would reach 2^12
// times the initial timeout — a frame caught in a transient outage
// would wait far past the outage's end before probing again. The cap
// keeps the probe interval bounded while still backing off enough that
// a congested link is not hammered.
const DefaultBackoffCapFactor = 64

// LinkDeadError is the hard failure reported when one frame exhausts
// its retry budget: the directed link it was sent on is effectively
// dead. It is the error surfaced through Transport.Err / OnFailure (and
// wrapped by machine.Run), so callers can pick out which link died with
// errors.As instead of parsing the message.
type LinkDeadError struct {
	// Src, Dst name the dead directed link.
	Src, Dst coherence.NodeID
	// TSeq is the transport sequence number of the stuck frame.
	TSeq uint64
	// Retries is how many retransmissions were attempted.
	Retries int
	// FirstSent is when the frame was first transmitted.
	FirstSent sim.Time
	// Msg is the stuck coherence message.
	Msg coherence.Msg
}

// Error renders the diagnostic, naming the link and the stuck frame.
func (e *LinkDeadError) Error() string {
	return fmt.Sprintf("reliable: link %v->%v dead: frame %d (%v, first sent at %v) unacknowledged after %d retransmits",
		e.Src, e.Dst, e.TSeq, e.Msg, e.FirstSent, e.Retries)
}

// Stats aggregates transport activity.
type Stats struct {
	// DataSent counts first transmissions of coherence messages.
	DataSent uint64
	// Retransmits counts timeout-driven re-sends.
	Retransmits uint64
	// Delivered counts messages released, in order, to the protocol.
	Delivered uint64
	// DupsDiscarded counts received frames whose sequence number had
	// already been delivered or buffered (wire duplicates and spurious
	// retransmissions).
	DupsDiscarded uint64
	// HeldOutOfOrder counts frames that arrived ahead of a gap and
	// waited in the reorder buffer.
	HeldOutOfOrder uint64
	// AcksSent and AcksRecv count cumulative acknowledgment frames.
	AcksSent uint64
	AcksRecv uint64
}

// outstanding is one unacknowledged frame at the sender.
type outstanding struct {
	msg     coherence.Msg
	retries int
	backoff sim.Time
	sentAt  sim.Time
}

// heldFrame is one reorder-window slot; ok marks a frame that arrived.
type heldFrame struct {
	msg coherence.Msg
	ok  bool
}

// link is the per-(src,dst) transport state. The sender-side fields
// live with the source node, the receiver-side fields with the
// destination; both sides of one directed link share this struct
// because the whole simulation runs in one process. Both sides keep a
// window of values indexed by sequence number: cumulative acks retire
// a prefix of the unacked frames and in-order arrival releases a
// prefix of the held ones, so each window only ever shifts its front.
type link struct {
	src, dst coherence.NodeID

	// Sender side: unacked[i] is frame nextSend-len(unacked)+1+i.
	nextSend uint64 // last assigned sequence number (first frame is 1)
	unacked  []outstanding

	// Receiver side: held[i] is frame delivered+2+i (frame
	// delivered+1 is the gap; it is released the moment it arrives).
	delivered uint64 // highest sequence released in order
	held      []heldFrame
}

// acked returns the highest frame number the sender knows delivered.
func (l *link) acked() uint64 { return l.nextSend - uint64(len(l.unacked)) }

// Inflight describes one unacknowledged frame, for diagnostics.
type Inflight struct {
	Src, Dst coherence.NodeID
	TSeq     uint64
	Retries  int
	SentAt   sim.Time
	Msg      coherence.Msg
}

// Transport provides reliable exactly-once in-order delivery over a
// faulty network. It implements the stache.Sender interface; bind
// upper-layer handlers with Bind instead of network.Bind.
type Transport struct {
	engine     *sim.Engine
	net        *network.Network
	nodes      int
	timeout    sim.Time // initial retransmit timeout
	backoffCap sim.Time // upper bound on the doubled backoff
	maxRetries int
	handlers   []network.Handler
	links      []*link
	stats      Stats
	onFailure  func(error)
	failure    error
	// kindRetx is the engine event kind for retransmit timers; the
	// EventRec carries the link (Src, Dst) and frame number (Seq), so
	// arming a timer allocates nothing.
	kindRetx sim.EventKind
}

// New layers a reliable transport over nw, claiming every node's
// packet handler. Upper layers must bind through Transport.Bind. The
// retransmit timeout and retry cap come from cfg (RetxTimeoutNs,
// RetxMaxRetries), with defaults derived from the message latency and
// the fault plan's jitter bound.
func New(engine *sim.Engine, nw *network.Network, cfg sim.Config) *Transport {
	timeout := cfg.RetxTimeoutNs
	if timeout == 0 {
		// An ack round trip is two one-way latencies; add the worst
		// jitter on both legs plus slack so a healthy link almost never
		// retransmits spuriously (spurious copies are deduplicated, but
		// they cost simulated wire occupancy).
		timeout = 4*cfg.MessageLatencyNs() + 2*sim.Time(cfg.Faults.JitterNs) + 100
	}
	maxRetries := cfg.RetxMaxRetries
	if maxRetries == 0 {
		maxRetries = DefaultMaxRetries
	}
	backoffCap := cfg.RetxBackoffCapNs
	if backoffCap == 0 {
		backoffCap = DefaultBackoffCapFactor * timeout
	}
	if backoffCap < timeout {
		// A cap below the initial timeout would make the "backoff"
		// shrink; clamp to constant-interval retransmission instead.
		backoffCap = timeout
	}
	t := &Transport{
		engine:     engine,
		net:        nw,
		nodes:      nw.Nodes(),
		timeout:    timeout,
		backoffCap: backoffCap,
		maxRetries: maxRetries,
		handlers:   make([]network.Handler, nw.Nodes()),
		links:      make([]*link, nw.Nodes()*nw.Nodes()),
	}
	t.kindRetx = engine.RegisterHandler(t.handleRetx)
	for i := 0; i < t.nodes; i++ {
		node := coherence.NodeID(i)
		nw.BindPacket(node, t.receive)
	}
	return t
}

// Bind installs the upper-layer (protocol) handler for node id.
func (t *Transport) Bind(id coherence.NodeID, h network.Handler) {
	t.handlers[int(id)] = h
}

// OnFailure installs the hard-failure callback, invoked once when a
// frame exhausts its retries (the link is effectively dead). Without a
// callback the failure is only recorded; Err exposes it.
func (t *Transport) OnFailure(f func(error)) { t.onFailure = f }

// Err returns the first hard failure, or nil.
func (t *Transport) Err() error { return t.failure }

// Stats returns a copy of the accumulated counters.
func (t *Transport) Stats() Stats { return t.stats }

// link returns (creating on demand) the state for the directed link
// src->dst.
func (t *Transport) linkFor(src, dst coherence.NodeID) *link {
	i := int(src)*t.nodes + int(dst)
	l := t.links[i]
	if l == nil {
		//cosmosvet:allow hotpath one-time link state creation on first use of a (src, dst) pair
		l = &link{src: src, dst: dst}
		t.links[i] = l
	}
	return l
}

// Undelivered returns how many frames the transport has accepted but
// not yet released to the protocol: unacknowledged frames whose
// sequence number the receiver has not released, plus frames parked in
// reorder buffers behind a gap. A frame that was delivered but whose
// acknowledgment is still in flight does not count — the protocol has
// it. The invariant monitor's quiesce check and the watchdog
// diagnostic read this to tell "messages still owed to the protocol"
// apart from "acks still draining".
func (t *Transport) Undelivered() int {
	n := 0
	for _, l := range t.links {
		if l == nil {
			continue
		}
		// Frames held in the reorder buffer are still unacknowledged too
		// (cumulative acks cover only released frames), so counting
		// unacked frames beyond the release point covers both kinds.
		if from := max(l.acked(), l.delivered); l.nextSend > from {
			n += int(l.nextSend - from)
		}
	}
	return n
}

// Inflight returns every unacknowledged frame, ordered by (src, dst,
// tseq) for deterministic diagnostics.
func (t *Transport) Inflight() []Inflight {
	var out []Inflight
	for _, l := range t.links {
		if l == nil {
			continue
		}
		for i, o := range l.unacked {
			out = append(out, Inflight{
				Src: l.src, Dst: l.dst, TSeq: l.acked() + 1 + uint64(i),
				Retries: o.retries, SentAt: o.sentAt, Msg: o.msg,
			})
		}
	}
	return out
}

// Send implements stache.Sender: the message is sequenced on its link,
// buffered for retransmission, and injected. Node-local messages never
// touch the wire and bypass sequencing entirely.
//
//cosmosvet:hotpath
func (t *Transport) Send(msg coherence.Msg) {
	if msg.Src == msg.Dst {
		t.net.Send(msg)
		return
	}
	l := t.linkFor(msg.Src, msg.Dst)
	l.nextSend++
	//cosmosvet:allow hotpath window growth to a new peak of unacked frames; acks shift it back down in place
	l.unacked = append(l.unacked, outstanding{msg: msg, backoff: t.timeout, sentAt: t.engine.Now()})
	t.stats.DataSent++
	t.net.SendPacket(network.Packet{Src: msg.Src, Dst: msg.Dst, Msg: msg, TSeq: l.nextSend})
	t.armTimer(l, l.nextSend, t.timeout)
}

// armTimer schedules the retransmit check for frame ts on l after
// backoff.
//
//cosmosvet:hotpath
func (t *Transport) armTimer(l *link, ts uint64, backoff sim.Time) {
	t.engine.PostAfter(backoff, sim.EventRec{Kind: t.kindRetx, Src: l.src, Dst: l.dst, Seq: ts})
}

// handleRetx fires a retransmit timer delivered as a value-typed
// event: the record names the link and the frame.
//
//cosmosvet:hotpath
func (t *Transport) handleRetx(rec sim.EventRec) {
	t.timerFired(t.linkFor(rec.Src, rec.Dst), rec.Seq)
}

// timerFired retransmits frame ts if it is still unacknowledged,
// doubling its backoff; after maxRetries the link is declared dead.
func (t *Transport) timerFired(l *link, ts uint64) {
	if ts <= l.acked() || t.failure != nil {
		return // acked meanwhile, or the run is already failing
	}
	o := &l.unacked[ts-l.acked()-1]
	if o.retries >= t.maxRetries {
		//cosmosvet:allow hotpath link-death diagnostic; the run is already failing
		t.fail(&LinkDeadError{
			Src: l.src, Dst: l.dst, TSeq: ts,
			Retries: o.retries, FirstSent: o.sentAt, Msg: o.msg,
		})
		return
	}
	o.retries++
	o.backoff *= 2
	if o.backoff > t.backoffCap {
		o.backoff = t.backoffCap
	}
	t.stats.Retransmits++
	t.net.SendPacket(network.Packet{Src: l.src, Dst: l.dst, Msg: o.msg, TSeq: ts, Retx: true})
	t.armTimer(l, ts, o.backoff)
}

// fail records the first hard failure and notifies the machine.
func (t *Transport) fail(err error) {
	if t.failure != nil {
		return
	}
	t.failure = err
	if t.onFailure != nil {
		t.onFailure(err)
	}
}

// receive is the packet handler bound on every node: acks retire
// sender-side state; data frames are deduplicated, released in order,
// and cumulatively acknowledged.
func (t *Transport) receive(pkt network.Packet) {
	if pkt.Ctrl {
		t.handleAck(pkt)
		return
	}
	if pkt.TSeq == 0 {
		// Unsequenced (node-local) message: deliver directly.
		t.handlers[pkt.Dst](pkt.Msg)
		return
	}
	l := t.linkFor(pkt.Src, pkt.Dst)
	switch {
	case pkt.TSeq <= l.delivered:
		// Already released: a wire duplicate or a spurious
		// retransmission. Our previous ack may have been lost, so
		// re-acknowledge.
		t.stats.DupsDiscarded++

	case pkt.TSeq == l.delivered+1:
		t.release(l, pkt.Msg)
		// Drain any frames the gap was holding back, then shift the
		// window past them and the gap that was just filled.
		n := 0
		for n < len(l.held) && l.held[n].ok {
			t.release(l, l.held[n].msg)
			n++
		}
		l.held = l.held[:copy(l.held, l.held[min(n+1, len(l.held)):])]

	default: // ahead of a gap: buffer
		i := int(pkt.TSeq - l.delivered - 2)
		for len(l.held) <= i {
			l.held = append(l.held, heldFrame{})
		}
		if l.held[i].ok {
			t.stats.DupsDiscarded++
		} else {
			l.held[i] = heldFrame{msg: pkt.Msg, ok: true}
			t.stats.HeldOutOfOrder++
		}
	}
	// Cumulative ack: everything up to and including l.delivered has
	// been released in order. Acks ride the same faulty wire; loss is
	// repaired by the next ack or a retransmission-triggered re-ack.
	t.stats.AcksSent++
	t.net.SendPacket(network.Packet{Src: pkt.Dst, Dst: pkt.Src, Ctrl: true, TSeq: l.delivered})
}

// release hands msg to the protocol in order.
func (t *Transport) release(l *link, msg coherence.Msg) {
	l.delivered++
	t.stats.Delivered++
	t.handlers[l.dst](msg)
}

// handleAck retires every unacknowledged frame covered by a cumulative
// ack. The ack for link src->dst travels dst->src.
func (t *Transport) handleAck(pkt network.Packet) {
	t.stats.AcksRecv++
	l := t.linkFor(pkt.Dst, pkt.Src)
	if pkt.TSeq > l.acked() {
		n := min(pkt.TSeq-l.acked(), uint64(len(l.unacked)))
		l.unacked = l.unacked[:copy(l.unacked, l.unacked[n:])]
	}
}
