package core

import (
	"fmt"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// This file implements the predictor variants the paper discusses but
// does not evaluate:
//
//   - Macroblock grouping (Section 7, citing Johnson & Hwu): "Cosmos'
//     memory requirement can perhaps be reduced by grouping predictions
//     for multiple cache blocks together". MacroConfig.BlockGroup folds
//     2^k consecutive blocks onto one MHR/PHT pair.
//   - Sender-agnostic histories (Section 3.5, footnote 2): "A more
//     aggressive predictor could ignore the senders for the
//     get_ro_request messages" — generalized here to ignoring senders
//     in the *history* (index) while still predicting full tuples.
//   - LimitLESS-style PHT allocation accounting (Section 3.7): how many
//     blocks fit in a small number of preallocated PHT entries, with
//     overflow served from a dynamically allocated pool.

// MacroConfig parameterizes a variant predictor.
type MacroConfig struct {
	// Base is the underlying Cosmos configuration.
	Base Config
	// BlockGroup is the number of consecutive cache blocks that share
	// one MHR/PHT (a power of two; 1 = plain Cosmos). The paper calls
	// groups of blocks "macroblocks".
	BlockGroup int
	// BlockBytes is the cache block size used to compute macroblock
	// boundaries.
	BlockBytes uint64
	// SenderAgnosticHistory indexes the PHT with message types only
	// (senders stripped from the history), shrinking the pattern space
	// at the cost of aliasing distinct sharers' patterns. Predictions
	// still carry full <sender, type> tuples.
	SenderAgnosticHistory bool
}

// Validate checks the variant parameters.
func (c MacroConfig) Validate() error {
	if err := c.Base.Validate(); err != nil {
		return err
	}
	if c.BlockGroup < 1 || c.BlockGroup&(c.BlockGroup-1) != 0 {
		return fmt.Errorf("core: BlockGroup %d must be a positive power of two", c.BlockGroup)
	}
	if c.BlockBytes == 0 || c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("core: BlockBytes %d must be a positive power of two", c.BlockBytes)
	}
	return nil
}

// MacroPredictor is a Cosmos variant with macroblock grouping and/or
// sender-agnostic history indexing. It exposes the same Observe
// interface as the base predictor so every evaluator accepts it.
type MacroPredictor struct {
	cfg  MacroConfig
	mask uint64
	p    *Predictor
}

// NewMacro creates a variant predictor.
func NewMacro(cfg MacroConfig) (*MacroPredictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, err := New(cfg.Base)
	if err != nil {
		return nil, err
	}
	return &MacroPredictor{
		cfg:  cfg,
		mask: ^(uint64(cfg.BlockGroup)*cfg.BlockBytes - 1),
		p:    p,
	}, nil
}

// Config returns the variant configuration.
func (m *MacroPredictor) Config() MacroConfig { return m.cfg }

// key folds an address onto its macroblock base.
func (m *MacroPredictor) key(addr coherence.Addr) coherence.Addr {
	return coherence.Addr(uint64(addr) & m.mask)
}

// strip removes the sender when the variant ignores senders in
// histories. The *training* of the PHT still records the true tuple as
// the prediction; only the index is coarsened, which we achieve by
// feeding the underlying predictor a two-step update: the history
// register stores stripped tuples while predictions return the last
// full tuple recorded for the pattern.
func (m *MacroPredictor) strip(t coherence.Tuple) coherence.Tuple {
	if !m.cfg.SenderAgnosticHistory {
		return t
	}
	return coherence.Tuple{Sender: 0, Type: t.Type}
}

// Predict returns the predicted next tuple for the block containing
// addr.
func (m *MacroPredictor) Predict(addr coherence.Addr) (coherence.Tuple, bool) {
	return m.p.predictFull(m.key(addr))
}

// Update trains the predictor with the actual tuple.
func (m *MacroPredictor) Update(addr coherence.Addr, actual coherence.Tuple) {
	m.p.updateIndexed(m.key(addr), m.strip(actual), actual)
}

// Observe is the combined predict-then-update step, fused into one
// index probe like the base predictor's.
func (m *MacroPredictor) Observe(addr coherence.Addr, actual coherence.Tuple) (pred coherence.Tuple, predicted, correct bool) {
	return m.p.observeIndexed(m.key(addr), m.strip(actual), actual)
}

// MHREntries returns the (macro)block count tracked.
func (m *MacroPredictor) MHREntries() uint64 { return m.p.MHREntries() }

// PHTEntries returns the total pattern entries.
func (m *MacroPredictor) PHTEntries() uint64 { return m.p.PHTEntries() }

// predictFull and updateIndexed extend the base predictor with a split
// between the tuple used for indexing (possibly sender-stripped) and
// the tuple stored as the prediction.

func (p *Predictor) predictFull(addr coherence.Addr) (coherence.Tuple, bool) {
	return p.Predict(addr)
}

// train installs (or filter-adjusts) e's prediction toward payload,
// the Section 3.4 update rule shared by every entry point.
func (p *Predictor) train(e *phtSlot, payload coherence.Tuple) {
	switch {
	case e.pred == payload:
		if e.counter < p.cfg.FilterMax {
			e.counter++
		}
	case e.counter > 0:
		e.counter--
	default:
		e.pred = payload
	}
}

// updateIndexed is Update with distinct index and payload tuples: the
// history register shifts in indexTuple while the PHT entry trained for
// the current history predicts payload.
func (p *Predictor) updateIndexed(addr coherence.Addr, indexTuple, payload coherence.Tuple) {
	bits, err := tupleBits(indexTuple)
	if err != nil {
		panic(err)
	}
	bs := p.ensureBlock(addr)
	if bs.seen >= uint64(p.cfg.Depth) {
		if e := bs.pht.find(bs.mhr); e != nil {
			p.train(e, payload)
		} else {
			bs.pht.insert(phtSlot{key: bs.mhr, pred: payload}, &p.spare)
			p.phtEntries++
		}
	}
	bs.mhr = (bs.mhr<<16 | uint64(bits)) & p.mhrMask
	bs.seen++
}

// observeIndexed fuses Predict and updateIndexed into a single index
// probe and a single PHT probe per message: the entry consulted for
// the prediction is the same entry the update rule trains, so finding
// it once suffices. Equivalence with the two-step path is pinned by
// the predictor unit tests and the sharded-evaluation tests.
func (p *Predictor) observeIndexed(addr coherence.Addr, indexTuple, payload coherence.Tuple) (pred coherence.Tuple, predicted, correct bool) {
	bits, err := tupleBits(indexTuple)
	if err != nil {
		panic(err)
	}
	bs := p.ensureBlock(addr)
	if bs.seen >= uint64(p.cfg.Depth) {
		if e := bs.pht.find(bs.mhr); e != nil {
			pred, predicted = e.pred, true
			correct = pred == payload
			p.train(e, payload)
		} else {
			bs.pht.insert(phtSlot{key: bs.mhr, pred: payload}, &p.spare)
			p.phtEntries++
		}
	}
	bs.mhr = (bs.mhr<<16 | uint64(bits)) & p.mhrMask
	bs.seen++
	return pred, predicted, correct
}

// PreallocStats reports, for a predictor, how a LimitLESS-style PHT
// implementation (Section 3.7) would fare: PHTs get `prealloc` entries
// statically per block; patterns beyond that spill into a shared
// dynamically-allocated pool.
type PreallocStats struct {
	// Blocks is the number of blocks with any PHT.
	Blocks uint64
	// WithinPrealloc counts blocks whose whole PHT fits the static
	// entries.
	WithinPrealloc uint64
	// PoolEntries counts entries that spill into the dynamic pool.
	PoolEntries uint64
}

// Prealloc computes the Section 3.7 allocation split for the given
// static per-block entry count.
func (p *Predictor) Prealloc(prealloc int) PreallocStats {
	var s PreallocStats
	for i := range p.blocks {
		n := p.blocks[i].pht.len()
		if n == 0 {
			continue
		}
		s.Blocks++
		if n <= prealloc {
			s.WithinPrealloc++
		} else {
			s.PoolEntries += uint64(n - prealloc)
		}
	}
	return s
}
