package stache

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// TestLinePointersSurviveGrowth holds a *cacheLine and a *dirEntry
// while thousands of other blocks are inserted (growing the tables
// many times over), then requires the same pointers, with their
// state, back for the same addresses.
func TestLinePointersSurviveGrowth(t *testing.T) {
	geom := coherence.MustGeometry(64, 4096, 4)
	ds := &delaySender{}
	dir := NewDirectory(0, geom, ds, DefaultOptions(), nil)
	c := NewCache(1, geom, ds, NewDirectory(1, geom, ds, DefaultOptions(), nil), DefaultOptions(), nil)
	const held = coherence.Addr(1 << 30)
	l := c.line(held)
	l.state = CacheReadWrite
	e := dir.entry(held)
	e.owner = 3
	lines := make([]*cacheLine, 5001)
	for i := 1; i <= 5000; i++ {
		a := coherence.Addr(i * 64)
		lines[i] = c.line(a)
		lines[i].state = CacheReadOnly
		dir.entry(a)
		if got := c.line(held); got != l || got.state != CacheReadWrite {
			t.Fatalf("after %d inserts the held line moved or lost its state", i)
		}
		if got := dir.entry(held); got != e || got.owner != 3 {
			t.Fatalf("after %d inserts the held entry moved or lost its owner", i)
		}
	}
	if c.LineCount() != 5001 || dir.EntryCount() != 5001 {
		t.Fatalf("LineCount = %d, EntryCount = %d, want 5001 each", c.LineCount(), dir.EntryCount())
	}
	for i := 1; i <= 5000; i++ {
		if got := c.line(coherence.Addr(i * 64)); got != lines[i] || got.state != CacheReadOnly {
			t.Fatalf("block %d: line moved or lost its state", i)
		}
	}
	if c.LineCount() != 5001 {
		t.Fatalf("lookups of present blocks inserted lines: LineCount = %d", c.LineCount())
	}
}

// TestDiagnosticListsOrderedByAddress creates lines and entries in a
// shuffled address order, leaves some mid-transaction or holding
// speculative state, and requires PendingLines, Entries, BusyEntries
// and SpecOutstanding to list exactly those, ascending by address.
func TestDiagnosticListsOrderedByAddress(t *testing.T) {
	geom := coherence.MustGeometry(64, 256, 4)
	ds := &delaySender{} // holds every message: transactions stay open
	dir := NewDirectory(0, geom, ds, DefaultOptions(), nil)
	c := NewCache(1, geom, ds, NewDirectory(1, geom, ds, DefaultOptions(), nil), DefaultOptions(), nil)
	var homed []coherence.Addr // blocks homed at node 0
	for a := coherence.Addr(0); len(homed) < 400; a += 64 {
		if geom.Home(a) == 0 {
			homed = append(homed, a)
		}
	}
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(homed), func(i, j int) { homed[i], homed[j] = homed[j], homed[i] })
	var wantPending, wantBusy, wantSpec, wantAll []coherence.Addr
	for i, a := range homed {
		wantAll = append(wantAll, a)
		c.Access(a, i%2 == 0, func() {})
		wantPending = append(wantPending, a)
		switch i % 3 {
		case 0: // shared by P2, then P3 writes: busy awaiting P2's ack
			dir.Deliver(coherence.Msg{Src: 2, Dst: 0, Type: coherence.GetROReq, Addr: a})
			dir.Deliver(coherence.Msg{Src: 3, Dst: 0, Type: coherence.GetRWReq, Addr: a})
			wantBusy = append(wantBusy, a)
		case 1:
			dir.Deliver(coherence.Msg{Src: 2, Dst: 0, Type: coherence.GetROReq, Addr: a})
			dir.entry(a).expect = 2
			wantSpec = append(wantSpec, a)
		default:
			dir.Deliver(coherence.Msg{Src: 2, Dst: 0, Type: coherence.GetROReq, Addr: a})
		}
	}
	sortAddrs := func(s []coherence.Addr) []coherence.Addr {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s
	}
	check := func(name string, got, want []coherence.Addr) {
		t.Helper()
		want = sortAddrs(want)
		if len(got) != len(want) {
			t.Fatalf("%s lists %d blocks, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s[%d] = %#x, want %#x", name, i, uint64(got[i]), uint64(want[i]))
			}
		}
	}
	var got []coherence.Addr
	for _, p := range c.PendingLines() {
		got = append(got, p.Addr)
	}
	check("PendingLines", got, wantPending)
	got = nil
	for _, e := range dir.Entries() {
		got = append(got, e.Addr)
	}
	check("Entries", got, wantAll)
	got = nil
	for _, e := range dir.BusyEntries() {
		got = append(got, e.Addr)
	}
	check("BusyEntries", got, wantBusy)
	got = nil
	for _, r := range dir.SpecOutstanding() {
		got = append(got, r.Addr)
	}
	check("SpecOutstanding", got, wantSpec)
}

// queueSender delivers messages in FIFO order when drained, standing
// in for a zero-latency network.
type queueSender struct {
	q      []coherence.Msg
	caches []*Cache
	dirs   []*Directory
}

func (s *queueSender) Send(msg coherence.Msg) { s.q = append(s.q, msg) }

func (s *queueSender) drain() {
	for i := 0; i < len(s.q); i++ {
		m := s.q[i]
		if m.Type.DirectoryBound() {
			s.dirs[m.Dst].Deliver(m)
		} else {
			s.caches[m.Dst].Deliver(m)
		}
	}
	s.q = s.q[:0]
}

// benchBlocks returns n block addresses spread over every home of
// geom, in a fixed shuffled order.
func benchBlocks(geom coherence.Geometry, n int) []coherence.Addr {
	rng := rand.New(rand.NewSource(1))
	out := make([]coherence.Addr, n)
	for i := range out {
		out[i] = coherence.Addr(uint64(i) * 64)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// BenchmarkCacheAccess runs processor accesses by pseudo-random nodes
// of a 16-node machine over 64k blocks, a quarter of them stores,
// delivering every protocol message the access causes before the next
// one: block lookups in the caches and directories, the protocol
// state machines and sharer-set updates.
func BenchmarkCacheAccess(b *testing.B) {
	const nodes = 16
	geom := coherence.MustGeometry(64, 4096, nodes)
	s := &queueSender{caches: make([]*Cache, nodes), dirs: make([]*Directory, nodes)}
	for i := range s.caches {
		s.dirs[i] = NewDirectory(coherence.NodeID(i), geom, s, DefaultOptions(), nil)
		s.caches[i] = NewCache(coherence.NodeID(i), geom, s, s.dirs[i], DefaultOptions(), nil)
	}
	blocks := benchBlocks(geom, 1<<16)
	rng := rand.New(rand.NewSource(2))
	who := make([]uint8, 1<<12)
	for i := range who {
		who[i] = uint8(rng.Intn(4 * nodes))
	}
	done := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := who[i&(len(who)-1)]
		s.caches[w%nodes].Access(blocks[i&(len(blocks)-1)], w >= 3*nodes, done)
		s.drain()
	}
}

// BenchmarkDirectoryDeliver delivers read requests from every other
// node to one directory over 64k blocks it homes, discarding the
// responses: the directory's entry lookup and sharer bookkeeping.
func BenchmarkDirectoryDeliver(b *testing.B) {
	const nodes = 16
	geom := coherence.MustGeometry(64, 4096, nodes)
	dir := NewDirectory(0, geom, sinkSender{}, DefaultOptions(), nil)
	blocks := make([]coherence.Addr, 0, 1<<16)
	for _, a := range benchBlocks(geom, nodes<<16) {
		if geom.Home(a) == 0 {
			blocks = append(blocks, a)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := coherence.NodeID(1 + i%(nodes-1))
		dir.Deliver(coherence.Msg{Src: src, Dst: 0, Type: coherence.GetROReq, Addr: blocks[i&(len(blocks)-1)]})
	}
}

// sinkSender discards every message.
type sinkSender struct{}

func (sinkSender) Send(coherence.Msg) {}
