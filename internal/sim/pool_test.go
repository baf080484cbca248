package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestWheelHeapEquivalenceInterleaved drives both schedulers with the
// same seeded interleaving of Post and Step: bursts that pile many
// events onto one instant (deep same-slot runs), near and far times,
// handlers that schedule more work while the queue drains, and full
// drains that empty the wheel before it is refilled. Items are freed
// and reused many times over before the run ends, so a recycling slip
// (an item linked into two slots, a stale successor, a lost free
// entry) changes the firing order and fails here.
func TestWheelHeapEquivalenceInterleaved(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		script := func(e *Engine, record EventKind) {
			rng := rand.New(rand.NewSource(seed))
			id := uint64(0)
			post := func(at Time) {
				id++
				e.Post(at, EventRec{Kind: record, Seq: id})
			}
			// A chained kind re-posts itself near now, so handlers
			// schedule while slots are being drained.
			var chain EventKind
			chain = e.RegisterHandler(func(rec EventRec) {
				if rec.Seq > 0 {
					id++
					e.PostAfter(Time(rec.Seq%7), EventRec{Kind: record, Seq: id})
					e.PostAfter(Time(rec.Seq%3), EventRec{Kind: chain, Seq: rec.Seq - 1})
				}
			})
			for round := 0; round < 200; round++ {
				switch rng.Intn(5) {
				case 0: // a deep same-instant run
					at := e.Now() + Time(rng.Intn(64))
					for i := rng.Intn(40); i >= 0; i-- {
						post(at)
					}
				case 1: // scattered near and far
					for i := rng.Intn(20); i >= 0; i-- {
						post(e.Now() + Time(rng.Intn(int(2*wheelSpan))))
					}
				case 2:
					e.Post(e.Now()+Time(rng.Intn(10)), EventRec{Kind: chain, Seq: uint64(rng.Intn(12))})
				case 3: // drain: every pool entry goes back on the free list
					for e.Step() {
					}
				}
				for i := rng.Intn(30); i > 0 && e.Step(); i-- {
				}
			}
		}
		wheel, heap := firingLogs(t, script)
		if wheel != heap {
			t.Fatalf("seed %d: wheel and heap firing orders diverged", seed)
		}
	}
}

// TestFreshEngineFirstPostIsSmall pins the lazy wheel's footprint: the
// first Post on a fresh engine allocates the slot table, the occupancy
// bitmap and a small item pool, not a slab sized for the whole horizon.
func TestFreshEngineFirstPostIsSmall(t *testing.T) {
	const limit = 64 << 10
	var before, after runtime.MemStats
	e := &Engine{}
	rec := EventRec{Kind: nopKind(e)}
	runtime.GC()
	runtime.ReadMemStats(&before)
	e.Post(1, rec)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Fatalf("first Post allocated %d bytes, want < %d", got, limit)
	}
}

// benchPostStep keeps depth events pending and, per iteration, fires
// the earliest and posts one replacement a pseudo-random near delay
// ahead, the steady state of a running machine.
func benchPostStep(b *testing.B, depth int) {
	var e Engine
	nop := EventRec{Kind: e.RegisterHandler(func(EventRec) {})}
	rng := rand.New(rand.NewSource(1))
	delays := make([]Time, 1024)
	for i := range delays {
		delays[i] = Time(rng.Intn(200))
	}
	for i := 0; i < depth; i++ {
		e.Post(delays[i%len(delays)], nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
		e.PostAfter(delays[i%len(delays)], nop)
	}
}

// BenchmarkPostStep measures one Step plus one Post on the wheel at
// the peak pending depths measured on real runs: about 128 wheel
// events for a 16-node machine (chaos sweeps with speculation peak at
// 122-132 per engine) and 1024 for the 1024-node mesh cell.
func BenchmarkPostStep(b *testing.B) {
	for _, depth := range []int{128, 1024} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) { benchPostStep(b, depth) })
	}
}
