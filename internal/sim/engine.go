// Package sim provides the discrete-event simulation engine that drives
// the machine model: a simulated clock, an event queue with
// deterministic tie-breaking, and the Table 3 machine configuration.
//
// Determinism matters: two runs with the same workload seed must deliver
// the identical coherence message stream, or predictor accuracies would
// not be reproducible. Events scheduled for the same instant are
// processed in the order they were scheduled (FIFO by a monotonically
// increasing sequence number), never by map iteration or heap caprice.
//
// Work is scheduled one way: Post a value-typed, pointer-free EventRec
// whose kind routes to a handler registered on the engine (event.go).
//
// The scheduler is split by horizon. Near-future events — the
// overwhelming majority, since NI and wire latencies are small
// constants — go into a timing wheel: wheelSpan slots of one
// nanosecond each, indexed by `at & wheelMask`, with a slot-occupancy
// bitmap scanned from `now` so the next event is found in O(words)
// regardless of queue depth. A slot is only a head/tail link into one
// shared item pool, so the wheel costs a 32 KB slot table plus a pool
// as deep as the peak of pending events (poolCap0 entries at first),
// and freed entries are reused last-in first-out while they are still
// warm in cache. Far timers
// (retransmit backoff tails, barrier latencies at large node counts,
// watchdog deadlines) overflow into the typed binary heap the engine
// always had. Nothing ever
// migrates between the two: Step compares the wheel's earliest item
// with the overflow top by (time, seq) and fires the smaller, so the
// merged order is exactly the order the single heap produced.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is simulated time in nanoseconds.
type Time uint64

// String renders times in nanoseconds.
func (t Time) String() string { return fmt.Sprintf("%dns", uint64(t)) }

// item is one entry in the scheduler: a value-typed event stamped with
// its firing time and FIFO sequence number. It holds no pointers, so
// the wheel's backing array and the overflow heap are memory the
// garbage collector never scans.
type item struct {
	at  Time
	seq uint64
	rec EventRec
}

// less orders two items by firing time, FIFO within an instant.
//
//cosmosvet:hotpath
func (a item) less(b item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap ordered by (time, seq). It is
// hand-inlined rather than built on container/heap: the standard
// interface forces every Push/Pop through an `any` box, which
// allocates per scheduled event and dominated Post/Step profiles.
// The typed version runs the same sift algorithm with zero
// allocations beyond slice growth.
type eventHeap []item

// less orders events by firing time, FIFO within an instant.
func (h eventHeap) less(i, j int) bool { return h[i].less(h[j]) }

// push appends it and restores the heap property by sifting up.
//
//cosmosvet:hotpath
func (h *eventHeap) push(it item) {
	//cosmosvet:allow hotpath amortized heap growth; steady state reuses the backing array
	q := append(*h, it)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

// pop removes and returns the minimum element, sifting the displaced
// tail element down.
//
//cosmosvet:hotpath
func (h *eventHeap) pop() item {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && q.less(right, left) {
			min = right
		}
		if !q.less(min, i) {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	*h = q
	return top
}

// Timing-wheel geometry. The span must cover the common scheduling
// horizon — per-hop latencies (tens of ns), NI occupancy, think time —
// so that only genuinely far timers pay the heap's O(log n).
const (
	wheelBits = 12
	// wheelSpan is the wheel horizon in nanoseconds: events with
	// at - now < wheelSpan are wheel-resident, the rest overflow.
	wheelSpan = Time(1) << wheelBits
	wheelMask = int(wheelSpan - 1)
	wheelSize = int(wheelSpan)
	occWords  = wheelSize / 64
	// poolCap0 is the item pool's initial capacity. The largest
	// per-engine peak of wheel-resident events measured on the 16-node
	// workloads is 132 (chaos sweeps of seeds 1-900 with speculation;
	// full-scale table captures peak at 92, the serve traffic at 115),
	// and 256 is the next power of two, so those runs never grow the
	// pool while a fresh engine stays under 50 KB. A 1024-node mesh
	// peaks at 1024 and grows the pool by append.
	poolCap0 = 256
)

// wheelSlot is one wheel bucket: a singly linked FIFO of pool entries
// from head to tail, linked through Engine.next. Index 0 is the nil
// link (pool entry 0 is never used), so the zero slot is empty.
// Because the live window [now, now+wheelSpan) maps injectively onto
// slots, every item in a nonempty slot shares a single firing time,
// and because global scheduling order is seq order, appending at the
// tail keeps each slot FIFO-sorted with no per-insert comparison.
type wheelSlot struct {
	head, tail int32
}

// Perturb is a bounded scheduling perturbation: given the nominal
// firing time and the scheduling sequence number of an event, it
// returns an extra non-negative delay to add before queueing. The
// chaos fuzzer (internal/chaos) uses it to explore alternative
// delivery interleavings; it MUST be a pure function of its arguments
// (plus a fixed seed) so perturbed runs stay replayable.
//
// Delaying deliveries can reorder the raw wire, so perturbed machines
// must run with the reliable transport layered in (an enabled fault
// plan), which restores the per-link FIFO order the protocol assumes.
type Perturb func(at Time, seq uint64) Time

// Engine is a single-threaded discrete-event simulator. The zero value
// is ready to use.
type Engine struct {
	now     Time
	seq     uint64
	fired   uint64
	halted  bool
	perturb Perturb

	// handlers is the fixed dispatch table for value-typed events,
	// indexed by EventKind.
	handlers []Handler

	// slots/occ/wheelCount form the timing wheel. slots, pool and
	// next are allocated lazily on the first scheduled event so a zero
	// Engine stays cheap; occ is an inline bitmap. pool holds every
	// wheel-resident item, next links each pool entry to its successor
	// in its slot (or, once fired, on the free list headed by free).
	slots      []wheelSlot
	occ        [occWords]uint64
	wheelCount int
	pool       []item
	next       []int32
	free       int32

	// overflow holds events beyond the wheel horizon. With heapOnly
	// set it holds everything — the pure-heap reference scheduler the
	// wheel is pinned against in equivalence tests.
	overflow eventHeap
	heapOnly bool
}

// SetPerturb installs (or, with nil, removes) a scheduling
// perturbation applied to every subsequently scheduled event. Install
// it before the first event is scheduled; swapping mid-run would make
// the run depend on when the swap happened.
func (e *Engine) SetPerturb(p Perturb) { e.perturb = p }

// SetHeapOnly switches the engine onto (or off) the pure-heap
// scheduler, bypassing the timing wheel entirely. The two schedulers
// implement the identical (time, seq) contract; the heap-only mode
// exists as the reference implementation equivalence tests pin the
// wheel against. Switching with events pending would strand wheel
// residents, so it panics.
func (e *Engine) SetHeapOnly(on bool) {
	if e.Pending() > 0 {
		panic("sim: SetHeapOnly with events pending")
	}
	e.heapOnly = on
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns how many events have executed so far; useful both for
// stats and for run-away detection in tests.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled-but-unfired events.
func (e *Engine) Pending() int { return e.wheelCount + len(e.overflow) }

// NextAt returns the timestamp of the earliest queued event. ok is
// false when the queue is empty.
func (e *Engine) NextAt() (at Time, ok bool) {
	idx, wOk := e.wheelPeek()
	if wOk {
		at, ok = e.pool[e.slots[idx].head].at, true
	}
	if len(e.overflow) > 0 && (!ok || e.overflow[0].at < at) {
		at, ok = e.overflow[0].at, true
	}
	return at, ok
}

// Post schedules a value-typed event at absolute time at. Events fire
// in (time, seq) order — FIFO within an instant. Scheduling in the
// past is a programming error and panics, because it would silently
// reorder causality; so does posting an unregistered kind. Post stamps
// the sequence number, applies any perturbation, and routes the item
// to the wheel or the overflow heap by horizon.
//
//cosmosvet:hotpath
func (e *Engine) Post(at Time, rec EventRec) {
	if int(rec.Kind) >= len(e.handlers) {
		panic(fmt.Sprintf("sim: Post with unregistered event kind %d", rec.Kind))
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.seq++
	if e.perturb != nil {
		at += e.perturb(at, e.seq)
	}
	it := item{at: at, seq: e.seq, rec: rec}
	if !e.heapOnly && at-e.now < wheelSpan {
		if e.slots == nil {
			e.initWheel()
		}
		e.wheelAdd(it)
		return
	}
	e.overflow.push(it)
}

// PostAfter schedules a value-typed event delay nanoseconds from now.
//
//cosmosvet:hotpath
func (e *Engine) PostAfter(delay Time, rec EventRec) { e.Post(e.now+delay, rec) }

// initWheel performs the one-time lazy wheel allocation: the slot
// table and the item pool with its links, whose entry 0 is the
// reserved nil link.
func (e *Engine) initWheel() {
	//cosmosvet:allow hotpath one-time lazy wheel allocation on the first scheduled event
	e.slots = make([]wheelSlot, wheelSize)
	//cosmosvet:allow hotpath one-time lazy wheel allocation on the first scheduled event
	e.pool = make([]item, 1, poolCap0)
	//cosmosvet:allow hotpath one-time lazy wheel allocation on the first scheduled event
	e.next = make([]int32, 1, poolCap0)
}

// wheelAdd stores it in a pool entry, reusing the most recently freed
// one, links the entry at its slot's tail and marks the slot occupied.
//
//cosmosvet:hotpath
func (e *Engine) wheelAdd(it item) {
	p := e.free
	if p != 0 {
		e.free = e.next[p]
		e.pool[p] = it
		e.next[p] = 0
	} else {
		p = int32(len(e.pool))
		//cosmosvet:allow hotpath pool growth to a new peak of pending events; fired entries are reused
		e.pool = append(e.pool, it)
		//cosmosvet:allow hotpath link growth alongside the pool; fired entries are reused
		e.next = append(e.next, 0)
	}
	idx := int(it.at) & wheelMask
	s := &e.slots[idx]
	if s.head == 0 {
		s.head = p
		e.occ[idx>>6] |= 1 << uint(idx&63)
	} else {
		e.next[s.tail] = p
	}
	s.tail = p
	e.wheelCount++
}

// wheelPeek finds the slot holding the wheel's earliest item: the
// first occupied slot scanning circularly from now's slot. Every
// wheel-resident item lies in [now, now+wheelSpan), which maps
// one-to-one onto slots, so circular slot order IS firing-time order.
//
//cosmosvet:hotpath
func (e *Engine) wheelPeek() (idx int, ok bool) {
	if e.wheelCount == 0 {
		return 0, false
	}
	start := int(e.now) & wheelMask
	w0, b0 := start>>6, uint(start&63)
	if word := e.occ[w0] >> b0; word != 0 {
		return start + bits.TrailingZeros64(word), true
	}
	for i := 1; i <= occWords; i++ {
		w := w0 + i
		if w >= occWords {
			w -= occWords
		}
		word := e.occ[w]
		if w == w0 {
			// Wrapped back to the starting word: only the bits below
			// now's position remain unexamined.
			word &= 1<<b0 - 1
		}
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word), true
		}
	}
	panic("sim: wheel count positive but no occupied slot")
}

// wheelPop removes and returns the head item of slot idx, clearing
// the slot's occupancy bit when it empties, and pushes the item's pool
// entry onto the free list, so steady state recycles pool entries
// instead of allocating.
//
//cosmosvet:hotpath
func (e *Engine) wheelPop(idx int) item {
	s := &e.slots[idx]
	p := s.head
	it := e.pool[p]
	s.head = e.next[p]
	if s.head == 0 {
		e.occ[idx>>6] &^= 1 << uint(idx&63)
	}
	e.next[p] = e.free
	e.free = p
	e.wheelCount--
	return it
}

// pop removes and returns the globally earliest item, merging the
// wheel and the overflow heap by (time, seq). An overflow item can
// share an instant with a wheel item (a far-scheduled timer whose
// horizon arrived), so the seq tiebreak is load-bearing here.
//
//cosmosvet:hotpath
func (e *Engine) pop() item {
	idx, wOk := e.wheelPeek()
	if !wOk {
		return e.overflow.pop()
	}
	if len(e.overflow) > 0 && e.overflow[0].less(e.pool[e.slots[idx].head]) {
		return e.overflow.pop()
	}
	return e.wheelPop(idx)
}

// Halt stops Run before the next event fires. Events already scheduled
// remain queued.
func (e *Engine) Halt() { e.halted = true }

// Step fires the single earliest event. It reports whether an event
// fired (false means the queue was empty).
//
//cosmosvet:hotpath
func (e *Engine) Step() bool {
	if e.wheelCount == 0 && len(e.overflow) == 0 {
		return false
	}
	it := e.pop()
	e.now = it.at
	e.fired++
	e.handlers[it.rec.Kind](it.rec)
	return true
}

// Run fires events until the queue drains, Halt is called, or maxEvents
// events have fired (0 means no limit). It returns the number of events
// fired by this call and an error if the event budget was exhausted,
// which almost always means a protocol livelock.
func (e *Engine) Run(maxEvents uint64) (uint64, error) {
	e.halted = false
	var fired uint64
	for !e.halted {
		if maxEvents != 0 && fired >= maxEvents {
			next, _ := e.NextAt()
			return fired, fmt.Errorf("sim: event budget %d exhausted at t=%v with %d events pending (earliest at %v); likely livelock",
				maxEvents, e.now, e.Pending(), next)
		}
		if !e.Step() {
			return fired, nil
		}
		fired++
	}
	return fired, nil
}

// RunUntil fires events with timestamps <= deadline. Events scheduled
// beyond the deadline stay queued; time advances to the deadline if the
// queue drains early.
func (e *Engine) RunUntil(deadline Time) uint64 {
	var fired uint64
	for {
		at, ok := e.NextAt()
		if !ok || at > deadline {
			break
		}
		e.Step()
		fired++
	}
	if e.now < deadline {
		e.now = deadline
	}
	return fired
}

// MaxTime is the largest representable simulated time.
const MaxTime Time = math.MaxUint64
