package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/cosmos-coherence/cosmos/internal/chaos"
	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/faults"
	"github.com/cosmos-coherence/cosmos/internal/governor"
	"github.com/cosmos-coherence/cosmos/internal/machine"
	"github.com/cosmos-coherence/cosmos/internal/sim"
	"github.com/cosmos-coherence/cosmos/internal/speculate"
	"github.com/cosmos-coherence/cosmos/internal/stache"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// chaosW is a chaos sweep at 16 nodes with the speculation axis on:
// faults, perturbation and the invariant monitor, one fresh machine per
// seed, run serially.
type chaosW struct {
	env
	cfg   chaos.Config
	start int64

	res    []chaos.Result
	seedS  []float64
	sweepS float64
}

// chaosSeeds is the sweep length.
const chaosSeeds = 300

// chaosSetupSample is how many of the sweep's machines set-up builds.
// chaos.Sweep builds its own machine for every seed inside the timed
// run, so this set-up is a proxy: it measures the per-seed set-up cost
// on duplicate builds that the run does not use.
const chaosSetupSample = 16

func newChaos(e env) runner {
	cfg := chaos.DefaultConfig()
	cfg.Nodes = 16
	cfg.Spec = true
	// Each workload seed selects its own disjoint range of chaos seeds.
	return &chaosW{env: e, cfg: cfg, start: 1 + e.seed*chaosSeeds}
}

// setup builds the first seeds' machines the way the sweep does and
// discards them (see chaosSetupSample).
func (c *chaosW) setup() error {
	for s := c.start; s < c.start+chaosSetupSample; s++ {
		if _, _, err := c.replica(s); err != nil {
			return err
		}
	}
	return nil
}

// run sweeps the seeds one at a time, which is what the serial
// chaos.Sweep does, so each seed's host time is measured.
func (c *chaosW) run(tr *Tracer) error {
	var err error
	c.sweepS, err = tr.span("chaos.sweep", func() error {
		c.res, c.seedS = c.res[:0], c.seedS[:0]
		for s := c.start; s < c.start+chaosSeeds; s++ {
			t0 := time.Now()
			c.res = append(c.res, chaos.Sweep(c.cfg, s, 1, 1)...)
			c.seedS = append(c.seedS, time.Since(t0).Seconds())
		}
		return nil
	})
	return err
}

func (c *chaosW) check() checkResult { return checkChaos(c.res, chaosSeeds) }

// checkChaos is one op per seed: every seed must come back ok.
func checkChaos(results []chaos.Result, want int) checkResult {
	var cr checkResult
	for _, r := range results {
		cr.add(r.Outcome == chaos.OutcomeOK, "chaos seed %d: %s %s %s", r.Seed, r.Outcome, r.Rule, firstLine(r.Diagnostic))
	}
	if missing := want - len(results); missing > 0 {
		cr.fail(missing, "chaos sweep returned %d of %d seeds", len(results), want)
	}
	return cr
}

func (c *chaosW) totals() (events, accesses, messages, stalls uint64) {
	for _, r := range c.res {
		events += r.Events
		accesses += r.Accesses
		messages += r.Messages
		if r.Outcome == chaos.OutcomeStall {
			stalls++
		}
	}
	return
}

func (c *chaosW) results() (map[string]float64, map[string]float64) {
	events, accesses, messages, stalls := c.totals()
	det := map[string]float64{
		"chaos.seeds":       float64(len(c.res)),
		"chaos.events":      float64(events),
		"chaos.messages":    float64(messages),
		"chaos.stalls":      float64(stalls),
		"sim.events":        float64(events),
		"workload.accesses": float64(accesses),
	}
	s := append([]float64(nil), c.seedS...)
	sort.Float64s(s)
	timing := map[string]float64{
		"sim_events_per_s":  float64(events) / c.sweepS,
		"chaos.seed_p50_ms": 1e3 * percentile(s, 0.50),
		"chaos.seed_p98_ms": 1e3 * percentile(s, 0.98),
	}
	return det, timing
}

// probe re-runs every seed on a replica built from public packages to
// read the layer counters chaos.Result does not carry. The replica must
// reproduce each seed's event, access and message counts exactly.
func (c *chaosW) probe() (map[string]float64, error) {
	out := map[string]float64{}
	var cnt counters
	for _, want := range c.res {
		start := time.Now()
		m, script, err := c.replica(want.Seed)
		if err != nil {
			return nil, err
		}
		out["machine.new_s"] += time.Since(start).Seconds()
		start = time.Now()
		if err := m.Run(c.cfg.MaxEvents); err != nil {
			return nil, fmt.Errorf("replica of seed %d: %w", want.Seed, err)
		}
		out["machine.run_s"] += time.Since(start).Seconds()
		if m.Engine().Fired() != want.Events || m.Accesses() != want.Accesses || m.Monitor().Messages() != want.Messages {
			return nil, fmt.Errorf("replica of seed %d diverges from chaos.RunSeed: events %d/%d accesses %d/%d messages %d/%d",
				want.Seed, m.Engine().Fired(), want.Events, m.Accesses(), want.Accesses, m.Monitor().Messages(), want.Messages)
		}
		cnt.addMachine(m)
		gen, _ := generate(script)
		out["workload.gen_s"] += gen
	}
	cnt.into(out)
	return out, nil
}

func (c *chaosW) cleanup() {}

// replica builds seed's machine exactly as chaos.RunSeed does for the
// sweep's configuration (no corruption): the random script, the
// seed-derived protocol variant, fault plan, speculation stack and
// delivery perturbation.
func (c *chaosW) replica(seed int64) (*machine.Machine, workload.App, error) {
	cfg := c.cfg
	r := rand.New(rand.NewSource(seed))
	geom := coherence.MustGeometry(64, 4096, cfg.Nodes)
	region := workload.NewArena(geom).Alloc(cfg.Blocks)
	addrs := make([]coherence.Addr, 0, cfg.Blocks)
	for b := 0; b < cfg.Blocks; b++ {
		addrs = append(addrs, region.Block(b))
	}
	steps := make([][][]workload.Access, cfg.Iters)
	for it := range steps {
		steps[it] = make([][]workload.Access, cfg.Nodes)
		for p := 0; p < cfg.Nodes; p++ {
			for a := 0; a < cfg.Accesses; a++ {
				addr := addrs[r.Intn(len(addrs))]
				if r.Intn(2) == 0 {
					steps[it][p] = append(steps[it][p], workload.Read(addr))
				} else {
					steps[it][p] = append(steps[it][p], workload.Write(addr))
				}
			}
		}
	}
	script := &workload.Script{ScriptName: "chaos", NumProcs: cfg.Nodes, Steps: steps}

	mcfg := sim.DefaultConfig()
	mcfg.Nodes = cfg.Nodes
	mcfg.Invariants = true
	mcfg.InvariantEvery = cfg.CheckEvery
	mcfg.Faults = faults.Plan{Seed: uint64(seed) + 1, DropProb: cfg.Drop, DupProb: cfg.Dup, JitterNs: cfg.JitterNs}

	opts := stache.DefaultOptions()
	if seed%3 == 1 {
		opts.HalfMigratory = false
	}
	if seed%4 == 3 {
		opts.CacheBlocks = 2 + int(seed%3)
		opts.CacheAssoc = 1 + int(seed%2)
	}
	opts.Speculation = cfg.Spec
	m, err := machine.New(mcfg, opts, script)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Spec {
		h := mix64(uint64(seed) ^ 0x5bd1e995)
		if _, err := speculate.Attach(m, speculate.AttachConfig{
			Actions:   speculate.AllActions(),
			Predictor: core.Config{Depth: 1 + int((h>>40)%2)},
			Governor: governor.Config{
				CounterMax:  3,
				Threshold:   1 + int(h%3),
				Window:      8 << ((h >> 8) % 3),
				TripRate:    0.3 + 0.1*float64((h>>16)%5),
				Cooldown:    16 << ((h >> 24) % 3),
				ProbeStreak: 1 + int((h>>32)%4),
			},
		}); err != nil {
			return nil, nil, err
		}
	}
	if cfg.PerturbNs > 0 {
		window := cfg.PerturbNs + 1
		s := mix64(uint64(seed))
		m.Engine().SetPerturb(func(at sim.Time, seq uint64) sim.Time {
			return sim.Time(mix64(s^mix64(seq)) % window)
		})
	}
	return m, script, nil
}

// mix64 is the splitmix64 finalizer chaos uses for its seed-derived
// choices.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
