// Package core implements Cosmos, the coherence message predictor that
// is the paper's primary contribution (Section 3).
//
// Cosmos is a two-level adaptive predictor patterned on Yeh and Patt's
// PAp branch predictor, with three differences the paper enumerates
// (Section 3.2): the first-level table is indexed by cache block
// address instead of branch PC; the prediction is a multi-bit
// <sender, message-type> tuple instead of one taken/not-taken bit; and
// second-level entries hold a prediction (optionally guarded by a
// saturating counter used as a noise filter, Section 3.6) instead of a
// two-bit counter FSM.
//
// Structure (Figure 3):
//
//   - The Message History Table (MHT) maps each cache block address to
//     a Message History Register (MHR) holding the <sender, type>
//     tuples of the last `depth` messages received for that block.
//   - Per MHR, a Pattern History Table (PHT) maps an MHR value (the
//     history pattern) to the tuple predicted to arrive next.
//
// Prediction (Section 3.3): index the MHT with the block address, use
// the MHR contents to index that block's PHT, return the entry if one
// exists. Update (Section 3.4): write the actual tuple as the new
// prediction for the current history (subject to the filter), then
// shift the tuple into the MHR.
//
// One Predictor instance corresponds to the predictor sitting beside
// one cache module or one directory module; allocate one per node and
// side, as Section 3.2 prescribes.
package core

import (
	"fmt"
	"math/bits"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// MaxDepth is the largest supported MHR depth. Histories are packed
// into a 64-bit key of 16-bit tuples (12 bits of sender, 4 bits of
// message type — exactly the 2-byte tuple encoding Table 7 assumes),
// so four tuples fit. The paper evaluates depths 1-4 (Table 5).
const MaxDepth = 4

// Config parameterizes a Cosmos predictor.
type Config struct {
	// Depth is the MHR depth: how many past messages index the PHT.
	// Must be in [1, MaxDepth].
	Depth int
	// FilterMax is the saturating counter maximum for the noise filter
	// of Section 3.6. 0 disables filtering (a single mis-prediction
	// replaces the prediction); 1 reproduces the paper's single-bit
	// counter (replace after two consecutive mis-predictions); Table 6
	// evaluates 0, 1 and 2.
	FilterMax int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Depth < 1 || c.Depth > MaxDepth {
		return fmt.Errorf("core: depth %d out of range [1,%d]", c.Depth, MaxDepth)
	}
	if c.FilterMax < 0 {
		return fmt.Errorf("core: negative filter maximum %d", c.FilterMax)
	}
	return nil
}

// tupleBits packs a tuple into 16 bits: 12 bits of sender, 4 of type.
// This is the hardware encoding Table 7's overhead model assumes
// ("tuple size of two bytes (12 bits for processors and 4 bits for
// coherence message types)").
func tupleBits(t coherence.Tuple) (uint16, error) {
	if t.Sender < 0 || t.Sender >= 1<<12 {
		//cosmosvet:allow hotpath error construction on the reject path; callers panic on it
		return 0, fmt.Errorf("core: sender %d does not fit in 12 bits", t.Sender)
	}
	if t.Type >= 1<<4 {
		//cosmosvet:allow hotpath error construction on the reject path; callers panic on it
		return 0, fmt.Errorf("core: message type %d does not fit in 4 bits", t.Type)
	}
	return uint16(t.Sender)<<4 | uint16(t.Type), nil
}

// phtSlot is one PHT slot: a packed history pattern and its entry —
// the predicted tuple plus the saturating noise-filter counter
// (Section 3.6) — side by side, so a probe's key compare and the entry
// it finds share a cache line.
type phtSlot struct {
	key  uint64
	pred coherence.Tuple
	// used marks an occupied slot. It sits in the padding after pred,
	// so the slot stays 24 bytes, and it frees every key value: the
	// zero pattern needs no special case.
	used    bool
	counter int
}

// phtTable is an open-addressed hash table from packed history pattern
// to entry. Slots are stored by value in one contiguous slice, so the
// steady-state Observe path — probe, compare, mutate in place —
// touches one flat array and performs zero allocations.
//
// Linear probing with a power-of-two capacity and a 3/4 load-factor
// growth threshold. Patterns are never deleted individually (Forget
// discards a block's whole table), so no tombstones are needed.
type phtTable struct {
	slots []phtSlot
	n     int32
}

// phtHash spreads a packed history or a block address over a table
// (splitmix64 finalizer; consecutive patterns differ only in a few
// tuple bits, consecutive blocks only in a few address bits).
func phtHash(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// len returns the number of stored patterns.
func (t *phtTable) len() int { return int(t.n) }

// find returns the slot holding key, or nil if the pattern is
// untrained. The pointer is valid until the next insert.
func (t *phtTable) find(key uint64) *phtSlot {
	if len(t.slots) == 0 {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	for i := phtHash(key) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			return nil
		}
		if s.key == key {
			return s
		}
	}
}

// insert stores a new pattern (the caller has checked it is absent),
// drawing a larger slot array from spare when the table must grow.
func (t *phtTable) insert(e phtSlot, spare *phtArrays) {
	if 4*(int(t.n)+1) > 3*len(t.slots) {
		t.grow(spare)
	}
	t.place(e)
	t.n++
}

// place writes a pattern into the first free slot of its probe chain.
func (t *phtTable) place(e phtSlot) {
	mask := uint64(len(t.slots) - 1)
	i := phtHash(e.key) & mask
	for t.slots[i].used {
		i = (i + 1) & mask
	}
	e.used = true
	t.slots[i] = e
}

// grow at least doubles the table (initially 8 slots) and rehashes.
func (t *phtTable) grow(spare *phtArrays) {
	newCap := 8
	if len(t.slots) > 0 {
		newCap = 2 * len(t.slots)
	}
	old := t.slots
	t.slots = spare.get(newCap)
	for _, s := range old {
		if s.used {
			t.place(s)
		}
	}
	if old != nil {
		spare.put(old)
	}
}

// phtArrays recycles zeroed PHT slot arrays by size: class c holds
// arrays of 8<<c slots. A table that grows takes the smallest kept
// array that holds at least the capacity it needs and gives back the
// one it outgrew, and Reset gives back every block's array, so a
// pooled predictor's next evaluation allocates no PHT storage the
// previous one already grew.
type phtArrays [][][]phtSlot

// sizeClass maps a power-of-two PHT capacity (at least 8) to its class.
func sizeClass(n int) int { return bits.TrailingZeros(uint(n)) - 3 }

// get returns a zeroed array of at least n slots, recycled when one is
// available.
func (a *phtArrays) get(n int) []phtSlot {
	for c := sizeClass(n); c < len(*a); c++ {
		if free := (*a)[c]; len(free) > 0 {
			arr := free[len(free)-1]
			free[len(free)-1] = nil
			(*a)[c] = free[:len(free)-1]
			return arr
		}
	}
	//cosmosvet:allow hotpath doubling rehash; growth cost is amortized across inserts and reset pools recycle the arrays
	return make([]phtSlot, n)
}

// put zeroes an array and keeps it for reuse.
func (a *phtArrays) put(arr []phtSlot) {
	clear(arr)
	c := sizeClass(len(arr))
	for len(*a) <= c {
		//cosmosvet:allow hotpath one class per table size, added once
		*a = append(*a, nil)
	}
	//cosmosvet:allow hotpath the free stack grows to the most arrays a predictor holds, then reuses its backing
	(*a)[c] = append((*a)[c], arr)
}

// blockState is one MHT slot: a block's address, its MHR and its PHT,
// 64 bytes, one cache line.
type blockState struct {
	addr coherence.Addr
	// mhr holds the last depth tuples, packed; most recent in the low
	// 16 bits. Only meaningful once seen >= depth.
	mhr uint64
	// seen counts messages received for this block.
	seen uint64
	pht  phtTable
	// used marks an occupied slot. Address 0 is a valid block, so the
	// address cannot double as the empty marker.
	used bool
}

// Predictor is one Cosmos predictor instance. It is not safe for
// concurrent use; the simulated machine is single-threaded.
//
// The MHT is one flat open-addressed table holding every block's state
// inline, so Figure 3's two lookups are two probes into two flat
// arrays: the block table by address, then that block's PHT by
// history. The evaluator walks millions of messages over thousands of
// blocks, and keeping the states inline and contiguous saves an
// allocation per block and a pointer chase per access.
//
// The block table uses linear probing with phtHash, a power-of-two
// capacity allocated on first insert and a 3/4 load-factor growth
// threshold. Forget uses backward-shift deletion, so no tombstones are
// needed. Every empty slot is all zero: a block state moved along its
// probe chain leaves no second reference to its PHT array behind.
type Predictor struct {
	cfg     Config
	mhrMask uint64
	blocks  []blockState
	nblocks int
	// spare holds the PHT arrays that tables outgrew or Reset cleared,
	// for growing tables to take before allocating their own.
	spare phtArrays

	phtEntries uint64
}

// New creates a predictor.
func New(cfg Config) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Predictor{
		cfg:     cfg,
		mhrMask: (uint64(1) << (16 * cfg.Depth)) - 1,
	}, nil
}

// slot returns the block table index holding addr, or -1 if the block
// is untracked.
func (p *Predictor) slot(addr coherence.Addr) int {
	if len(p.blocks) == 0 {
		return -1
	}
	mask := uint64(len(p.blocks) - 1)
	for i := phtHash(uint64(addr)) & mask; ; i = (i + 1) & mask {
		bs := &p.blocks[i]
		if !bs.used {
			return -1
		}
		if bs.addr == addr {
			return int(i)
		}
	}
}

// block returns the state for addr, or nil if the block is untracked.
// The pointer is valid until the next block is added (table growth
// moves every state), so callers use it within one operation and never
// retain it.
func (p *Predictor) block(addr coherence.Addr) *blockState {
	if i := p.slot(addr); i >= 0 {
		return &p.blocks[i]
	}
	return nil
}

// ensureBlock returns the block's state, claiming a table slot on first
// reference.
func (p *Predictor) ensureBlock(addr coherence.Addr) *blockState {
	if i := p.slot(addr); i >= 0 {
		return &p.blocks[i]
	}
	if 4*(p.nblocks+1) > 3*len(p.blocks) {
		p.growBlocks()
	}
	bs := &p.blocks[p.freeSlot(addr)]
	bs.used = true
	bs.addr = addr
	p.nblocks++
	return bs
}

// freeSlot returns the first empty slot on addr's probe chain.
func (p *Predictor) freeSlot(addr coherence.Addr) uint64 {
	mask := uint64(len(p.blocks) - 1)
	i := phtHash(uint64(addr)) & mask
	for p.blocks[i].used {
		i = (i + 1) & mask
	}
	return i
}

// growBlocks doubles the block table (initially 16 slots) and rehashes
// the occupied slots.
func (p *Predictor) growBlocks() {
	newCap := 16
	if len(p.blocks) > 0 {
		newCap = 2 * len(p.blocks)
	}
	old := p.blocks
	//cosmosvet:allow hotpath doubling rehash; growth cost is amortized and reset pools retain the capacity
	p.blocks = make([]blockState, newCap)
	for _, bs := range old {
		if bs.used {
			p.blocks[p.freeSlot(bs.addr)] = bs
		}
	}
}

// Reset returns the predictor to its freshly-constructed state for
// cfg, as if New(cfg) had been called — but retains every allocation
// the previous use grew: the block table's capacity, and each block's
// PHT array, emptied and kept for the tables grown next. Only
// occupied slots are written. The evaluator's per-worker predictor
// pool depends on this: re-evaluating similar traces reaches a steady
// state with no per-evaluation allocation at all. A reset predictor is
// observationally identical to a new one; the sharded evaluation
// equivalence tests pin that.
func (p *Predictor) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	p.cfg = cfg
	p.mhrMask = (uint64(1) << (16 * cfg.Depth)) - 1
	for i := range p.blocks {
		bs := &p.blocks[i]
		if !bs.used {
			continue
		}
		if bs.pht.slots != nil {
			p.spare.put(bs.pht.slots)
		}
		*bs = blockState{}
	}
	p.nblocks = 0
	p.phtEntries = 0
	return nil
}

// MustNew is New for constant configurations; it panics on error.
func MustNew(cfg Config) *Predictor {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Config returns the predictor's configuration.
func (p *Predictor) Config() Config { return p.cfg }

// Predict returns the predicted <sender, type> of the next incoming
// message for the block containing addr (the caller block-aligns
// addresses; Cosmos treats the address as an opaque key). ok is false
// when Cosmos has no prediction: the block is unknown, fewer than
// depth messages have been seen, or the current history pattern has no
// PHT entry yet.
//cosmosvet:hotpath
func (p *Predictor) Predict(addr coherence.Addr) (pred coherence.Tuple, ok bool) {
	bs := p.block(addr)
	if bs == nil || bs.seen < uint64(p.cfg.Depth) {
		return coherence.Tuple{}, false
	}
	e := bs.pht.find(bs.mhr)
	if e == nil {
		return coherence.Tuple{}, false
	}
	return e.pred, true
}

// Update trains the predictor with the actual next message for the
// block: it installs (or filter-adjusts) the PHT entry for the current
// history and shifts the tuple into the MHR (Section 3.4). PHTs are
// allocated lazily, so blocks with fewer protocol references than the
// MHR depth never own one (the Table 7 accounting convention).
//cosmosvet:hotpath
func (p *Predictor) Update(addr coherence.Addr, actual coherence.Tuple) {
	p.updateIndexed(addr, actual, actual)
}

// Observe is the combined predict-then-update step a hardware
// predictor performs on every message reception: it returns what
// Cosmos would have predicted for this arrival, whether a prediction
// existed, and whether it was correct, then trains on the actual
// tuple. It is equivalent to Predict followed by Update but probes the
// block table and the PHT once instead of twice — the trace
// evaluators spend most of their time here.
//cosmosvet:hotpath
func (p *Predictor) Observe(addr coherence.Addr, actual coherence.Tuple) (pred coherence.Tuple, predicted, correct bool) {
	return p.observeIndexed(addr, actual, actual)
}

// History returns the tuples currently in the block's MHR, oldest
// first. It returns fewer than depth tuples while the register is
// still filling.
func (p *Predictor) History(addr coherence.Addr) []coherence.Tuple {
	bs := p.block(addr)
	if bs == nil {
		return nil
	}
	n := int(bs.seen)
	if n > p.cfg.Depth {
		n = p.cfg.Depth
	}
	out := make([]coherence.Tuple, n)
	for i := 0; i < n; i++ {
		bits := uint16(bs.mhr >> (16 * (n - 1 - i)))
		out[i] = coherence.Tuple{
			Sender: coherence.NodeID(bits >> 4),
			Type:   coherence.MsgType(bits & 0xf),
		}
	}
	return out
}

// Forget discards all state for a block: its MHR contents and its
// PHT. This models the implementation Section 3.7 warns about, where
// the first-level table is merged with cache block state and a
// replacement loses the block's history ("this may lead to a loss of
// Cosmos' history information when cache blocks are replaced").
// Stand-alone Cosmos tables never need it; the replacement experiment
// quantifies what merging would cost.
func (p *Predictor) Forget(addr coherence.Addr) {
	i := p.slot(addr)
	if i < 0 {
		return
	}
	p.phtEntries -= uint64(p.blocks[i].pht.len())
	p.nblocks--
	// Backward-shift deletion: walk the rest of the probe chain and move
	// back into the hole each state whose home slot does not lie
	// cyclically in (hole, j], so every remaining block stays reachable
	// from its home slot without tombstones.
	mask := len(p.blocks) - 1
	for j := (i + 1) & mask; p.blocks[j].used; j = (j + 1) & mask {
		home := int(phtHash(uint64(p.blocks[j].addr)) & uint64(mask))
		if (j-home)&mask >= (j-i)&mask {
			p.blocks[i] = p.blocks[j]
			i = j
		}
	}
	p.blocks[i] = blockState{}
}

// MHREntries returns the number of blocks tracked (MHT size): blocks
// that received at least one message.
func (p *Predictor) MHREntries() uint64 { return uint64(p.nblocks) }

// PHTEntries returns the total number of pattern-history entries
// across all blocks.
func (p *Predictor) PHTEntries() uint64 { return p.phtEntries }

// PHTEntriesFor returns the PHT size of one block.
func (p *Predictor) PHTEntriesFor(addr coherence.Addr) int {
	bs := p.block(addr)
	if bs == nil {
		return 0
	}
	return bs.pht.len()
}

// MemoryStats is the Table 7 accounting for one or more predictors.
type MemoryStats struct {
	MHREntries uint64
	PHTEntries uint64
}

// Add accumulates another predictor's counters (Table 7 aggregates all
// predictors of a run).
func (m *MemoryStats) Add(p *Predictor) {
	m.MHREntries += p.MHREntries()
	m.PHTEntries += p.PHTEntries()
}

// Ratio is total PHT entries / total MHR entries (Table 7's "Ratio").
func (m MemoryStats) Ratio() float64 {
	if m.MHREntries == 0 {
		return 0
	}
	return float64(m.PHTEntries) / float64(m.MHREntries)
}

// Overhead returns Table 7's "Ovhd": the average per-block predictor
// memory as a percentage of a blockBytes-sized cache block, using the
// paper's formula
//
//	Ovhd = tupleSize * (depth + Ratio*(depth+1)) * 100 / blockBytes %
//
// with tupleSize = 2 bytes. The paper uses blockBytes = 128.
func (m MemoryStats) Overhead(depth int, blockBytes int) float64 {
	const tupleSize = 2.0
	return tupleSize * (float64(depth) + m.Ratio()*float64(depth+1)) * 100 / float64(blockBytes)
}
