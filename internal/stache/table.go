package stache

import (
	"math/bits"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// blockTable maps block addresses to per-block controller state: the
// cache's lines and the directory's entries. Every coherence message
// looks a block up, so the table is built for that lookup: an
// open-addressed array of (address, value pointer) slots, indexed by a
// Fibonacci hash of the address and probed linearly, kept at most
// three-quarters full. The protocol never forgets a block, so the
// table supports no deletion. Values are carved from chunks that are
// never moved or freed, so a *T stays valid however much the table
// grows afterwards.
type blockTable[T any] struct {
	slots []blockSlot[T]
	shift uint // 64 - log2(len(slots)): the hash keeps the top bits
	n     int
	chunk []T // unused tail of the newest value chunk
}

// blockSlot is one table slot; a nil val marks it empty.
type blockSlot[T any] struct {
	addr coherence.Addr
	val  *T
}

const (
	// fibHash is 2^64 divided by the golden ratio: multiplying by it
	// spreads block-aligned addresses over the high bits.
	fibHash = 0x9E3779B97F4A7C15
	// Value chunks grow with the table, from minChunk values to
	// maxChunk, so at most half a chunk of a small table is unused.
	minChunk = 8
	maxChunk = 256
)

// get returns addr's value, or nil if the block was never inserted.
//
//cosmosvet:hotpath
func (t *blockTable[T]) get(addr coherence.Addr) *T {
	if t.n == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	for i := int(uint64(addr) * fibHash >> t.shift); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.val == nil || s.addr == addr {
			return s.val
		}
	}
}

// insert returns addr's value, adding a zero value first if the block
// is new; fresh reports whether it did.
//
//cosmosvet:hotpath
func (t *blockTable[T]) insert(addr coherence.Addr) (v *T, fresh bool) {
	if v = t.get(addr); v != nil {
		return v, false
	}
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	if len(t.chunk) == 0 {
		//cosmosvet:allow hotpath value chunk for new blocks; chunks grow with the table and are never freed
		t.chunk = make([]T, min(max(t.n, minChunk), maxChunk))
	}
	v, t.chunk = &t.chunk[0], t.chunk[1:]
	t.place(addr, v)
	t.n++
	return v, true
}

// grow doubles the slot array and re-places every value.
func (t *blockTable[T]) grow() {
	old := t.slots
	n := max(2*len(old), 16)
	t.slots = make([]blockSlot[T], n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, s := range old {
		if s.val != nil {
			t.place(s.addr, s.val)
		}
	}
}

// place stores (addr, v) in the first empty slot of addr's probe run.
func (t *blockTable[T]) place(addr coherence.Addr, v *T) {
	mask := len(t.slots) - 1
	i := int(uint64(addr) * fibHash >> t.shift)
	for t.slots[i].val != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = blockSlot[T]{addr: addr, val: v}
}
