package core

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// refPredictor is the differential oracle for the open-addressed block
// and pattern tables: the same Section 3.4 update rule over plain Go
// maps, with no probing, no backward shifts and no reused arrays.
type refPredictor struct {
	cfg    Config
	blocks map[coherence.Addr]*refBlock
}

type refBlock struct {
	mhr, seen uint64
	pht       map[uint64]refEntry
}

type refEntry struct {
	pred    coherence.Tuple
	counter int
}

func newRef(cfg Config) *refPredictor {
	return &refPredictor{cfg: cfg, blocks: map[coherence.Addr]*refBlock{}}
}

func (r *refPredictor) observe(addr coherence.Addr, t coherence.Tuple) (pred coherence.Tuple, predicted, correct bool) {
	b := r.blocks[addr]
	if b == nil {
		b = &refBlock{pht: map[uint64]refEntry{}}
		r.blocks[addr] = b
	}
	if b.seen >= uint64(r.cfg.Depth) {
		if e, ok := b.pht[b.mhr]; ok {
			pred, predicted, correct = e.pred, true, e.pred == t
			switch {
			case e.pred == t:
				if e.counter < r.cfg.FilterMax {
					e.counter++
				}
			case e.counter > 0:
				e.counter--
			default:
				e.pred = t
			}
			b.pht[b.mhr] = e
		} else {
			b.pht[b.mhr] = refEntry{pred: t}
		}
	}
	mask := uint64(1)<<(16*r.cfg.Depth) - 1
	b.mhr = (b.mhr<<16 | uint64(t.Sender)<<4 | uint64(t.Type)) & mask
	b.seen++
	return pred, predicted, correct
}

func (r *refPredictor) phtEntries() uint64 {
	var n uint64
	for _, b := range r.blocks {
		n += uint64(len(b.pht))
	}
	return n
}

func (r *refPredictor) history(addr coherence.Addr) []coherence.Tuple {
	b := r.blocks[addr]
	if b == nil {
		return nil
	}
	n := int(min(b.seen, uint64(r.cfg.Depth)))
	out := make([]coherence.Tuple, n)
	for i := range out {
		bits := b.mhr >> (16 * (n - 1 - i))
		out[i] = coherence.Tuple{Sender: coherence.NodeID(bits >> 4 & 0xfff), Type: coherence.MsgType(bits & 0xf)}
	}
	return out
}

// digest hashes the canonical snapshot layout documented in
// snapshot.go, built independently from the maps.
func (r *refPredictor) digest() [sha256.Size]byte {
	le := binary.LittleEndian
	buf := []byte{byte(r.cfg.Depth)}
	buf = le.AppendUint32(buf, uint32(r.cfg.FilterMax))
	buf = le.AppendUint32(buf, uint32(len(r.blocks)))
	addrs := make([]coherence.Addr, 0, len(r.blocks))
	for a := range r.blocks {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		b := r.blocks[a]
		buf = le.AppendUint64(buf, uint64(a))
		buf = le.AppendUint64(buf, b.mhr)
		buf = le.AppendUint64(buf, b.seen)
		buf = le.AppendUint32(buf, uint32(len(b.pht)))
		keys := make([]uint64, 0, len(b.pht))
		for k := range b.pht {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			e := b.pht[k]
			buf = le.AppendUint64(buf, k)
			buf = le.AppendUint16(buf, uint16(e.pred.Sender))
			buf = append(buf, byte(e.pred.Type))
			buf = le.AppendUint32(buf, uint32(e.counter))
		}
	}
	return sha256.Sum256(buf)
}

// collidingAddrs returns n nonzero block addresses whose hash has its
// low six bits set: at every table size up to 64 they share the last
// slot as their home, so their probe chains wrap past the end of the
// table.
func collidingAddrs(n int) []coherence.Addr {
	var out []coherence.Addr
	for a := uint64(64); len(out) < n; a += 64 {
		if phtHash(a)&63 == 63 {
			out = append(out, coherence.Addr(a))
		}
	}
	return out
}

// TestBlockTableDifferential drives random Observe/Update/Forget/Reset
// sequences through the predictor and the map-based oracle, and
// requires identical observable state after every operation. The
// address pool mixes address 0, addresses that all hash to the last
// slot (so chains wrap), and scattered addresses; Forget then deletes
// from the middle of wrapped chains, which exercises backward-shift
// deletion, and Reset exercises reuse of emptied PHT arrays.
func TestBlockTableDifferential(t *testing.T) {
	colliding := collidingAddrs(14)
	for _, a := range colliding {
		for _, size := range []uint64{16, 32, 64} {
			if home := phtHash(uint64(a)) & (size - 1); home != size-1 {
				t.Fatalf("address %#x has home %d in a %d-slot table, want the last slot", uint64(a), home, size)
			}
		}
	}
	pool := append([]coherence.Addr{0}, colliding...)
	for a := uint64(1); a <= 15; a++ {
		pool = append(pool, coherence.Addr(a*4096+64))
	}
	configs := []Config{{Depth: 1}, {Depth: 2, FilterMax: 1}, {Depth: 3, FilterMax: 2}, {Depth: 4}}

	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := configs[r.Intn(len(configs))]
		p, ref := MustNew(cfg), newRef(cfg)
		for step := 0; step < 600; step++ {
			addr := pool[r.Intn(len(pool))]
			tup := coherence.Tuple{Sender: coherence.NodeID(r.Intn(3)), Type: coherence.MsgType(r.Intn(4))}
			var op string
			switch k := r.Intn(100); {
			case k < 2:
				op = "Reset"
				cfg = configs[r.Intn(len(configs))]
				if err := p.Reset(cfg); err != nil {
					t.Fatal(err)
				}
				ref = newRef(cfg)
			case k < 14:
				op = "Forget"
				p.Forget(addr)
				delete(ref.blocks, addr)
			case k < 30:
				op = "Update"
				p.Update(addr, tup)
				ref.observe(addr, tup)
			default:
				op = "Observe"
				gp, gok, gc := p.Observe(addr, tup)
				wp, wok, wc := ref.observe(addr, tup)
				if gp != wp || gok != wok || gc != wc {
					t.Fatalf("seed %d step %d: Observe(%#x, %v) = (%v,%v,%v), oracle (%v,%v,%v)",
						seed, step, uint64(addr), tup, gp, gok, gc, wp, wok, wc)
				}
			}
			if p.StateDigest() != ref.digest() {
				t.Fatalf("seed %d step %d (%s %#x): StateDigest differs from the oracle", seed, step, op, uint64(addr))
			}
			if got, want := p.MHREntries(), uint64(len(ref.blocks)); got != want {
				t.Fatalf("seed %d step %d (%s): MHREntries = %d, oracle %d", seed, step, op, got, want)
			}
			if got, want := p.PHTEntries(), ref.phtEntries(); got != want {
				t.Fatalf("seed %d step %d (%s): PHTEntries = %d, oracle %d", seed, step, op, got, want)
			}
			for _, a := range pool {
				want := 0
				if b := ref.blocks[a]; b != nil {
					want = len(b.pht)
				}
				if got := p.PHTEntriesFor(a); got != want {
					t.Fatalf("seed %d step %d (%s): PHTEntriesFor(%#x) = %d, oracle %d", seed, step, op, uint64(a), got, want)
				}
				if got, want := p.History(a), ref.history(a); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d (%s): History(%#x) = %v, oracle %v", seed, step, op, uint64(a), got, want)
				}
			}
		}
	}
}

// TestSlotLayout pins the table slot sizes: a block state fills one
// 64-byte cache line and a PHT slot stays 24 bytes, so a probe touches
// one line per slot.
func TestSlotLayout(t *testing.T) {
	if got := unsafe.Sizeof(blockState{}); got != 64 {
		t.Errorf("blockState is %d bytes, want 64", got)
	}
	if got := unsafe.Sizeof(phtSlot{}); got != 24 {
		t.Errorf("phtSlot is %d bytes, want 24", got)
	}
}
