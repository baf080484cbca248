package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"

	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/experiments"
	"github.com/cosmos-coherence/cosmos/internal/faults"
	"github.com/cosmos-coherence/cosmos/internal/serve"
	"github.com/cosmos-coherence/cosmos/internal/sim"
	"github.com/cosmos-coherence/cosmos/internal/trace"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// serveW is one cosmos-serve deployment fed with real coherence
// traffic: each (node, side) slot of the medium-scale 16-node dsmc
// trace is one client stream, paced open-loop in simulated time.
type serveW struct {
	env
	cfg  experiments.Config
	pcfg core.Config
	plan faults.Plan
	dir  string
	iter int
	recs []trace.Record // the input trace's records of the serving nodes
	obs  [][]serve.Obs

	c      *serve.Cluster
	runErr error
	spans  map[string]float64
}

// serveNodes is how many of the trace's 16 nodes become client
// streams (two slots each): all of them.
const serveNodes = 16

// servePaceNs is the per-stream pacing unit: the server serves one
// entry per 50ns, so 100ns x streams offers half its capacity.
const servePaceNs = 100

func newServe(e env) runner {
	cfg := experiments.DefaultConfig()
	cfg.Scale = workload.ScaleMedium
	return &serveW{
		env:  e,
		cfg:  cfg,
		pcfg: core.Config{Depth: 2, FilterMax: 1},
		// Plan seed 0 means unseeded, so the workload seed is offset.
		plan: faults.Plan{Seed: uint64(e.seed) + 1, DropProb: 0.01, JitterNs: 100},
	}
}

// setup captures the input trace, splits it into client streams and
// builds a cluster over a fresh store.
func (s *serveW) setup() error {
	app, err := workload.ByName("dsmc", s.cfg.Machine.Nodes, s.cfg.Scale)
	if err != nil {
		return err
	}
	input, err := experiments.Run(app, s.cfg)
	if err != nil {
		return err
	}
	s.recs = s.recs[:0]
	for _, r := range input.Records {
		if int(r.Node) < serveNodes {
			s.recs = append(s.recs, r)
		}
	}
	s.obs = streamsOf(s.recs, serveNodes)
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
	s.iter++
	s.dir = filepath.Join(s.tmp, fmt.Sprintf("serve-store-%d", s.iter))
	s.c, err = serve.NewCluster(serve.HarnessConfig{
		Dir: s.dir,
		Server: serve.Config{
			Predictor:     s.pcfg,
			SnapshotEvery: 64,
		},
		Plan:  s.plan,
		GapNs: sim.Time(servePaceNs * len(s.obs)),
	}, s.obs)
	return err
}

// streamsOf turns each (node, side) slot of the records of nodes into
// one stream of observations in arrival order.
func streamsOf(recs []trace.Record, nodes int) [][]serve.Obs {
	obs := make([][]serve.Obs, 2*nodes)
	for _, r := range recs {
		slot := int(r.Node)*2 + int(r.Side)
		obs[slot] = append(obs[slot], serve.Obs{Addr: r.Addr, Tup: r.Tuple()})
	}
	return obs
}

func (s *serveW) run(tr *Tracer) error {
	s.spans = map[string]float64{}
	// A failed run is a correctness failure, reported by check.
	s.spans["serve.run_s"], _ = tr.span("serve.run", func() error {
		s.runErr = s.c.Run()
		return nil
	})
	return nil
}

func (s *serveW) check() checkResult {
	var recv [][]serve.Response
	var snaps [][]byte
	for i, cl := range s.c.Clients {
		recv = append(recv, cl.Recv)
		snaps = append(snaps, s.c.Srv.PredictorSnapshot(i))
	}
	return checkServe(s.pcfg, s.obs, recv, snaps, s.c.Srv.Stats(), s.runErr)
}

// checkServe verifies every observation's response and every stream's
// final predictor against serve.Oracle. Each observation is one op; a
// shed, timed-out or dropped observation counts as a failed op.
func checkServe(pcfg core.Config, obs [][]serve.Obs, recv [][]serve.Response, snaps [][]byte, st serve.Stats, runErr error) checkResult {
	var c checkResult
	if runErr != nil {
		c.add(false, "serve run: %v", firstLine(runErr.Error()))
	}
	if lost := sum(st.Shed) + sum(st.TimedOut) + sum(st.Dropped); lost > 0 {
		c.fail(int(lost), "serve lost %d observations (shed %d, timed out %d, dropped %d)", lost, sum(st.Shed), sum(st.TimedOut), sum(st.Dropped))
	}
	for i, o := range obs {
		want, wantSnap, err := serve.Oracle(pcfg, o)
		if err != nil {
			c.add(false, "oracle for stream %d: %v", i, err)
			continue
		}
		var got []serve.Response
		if i < len(recv) {
			got = recv[i]
		}
		for j := range want {
			c.add(j < len(got) && got[j] == want[j], "stream %d response %d differs from the oracle", i, j)
		}
		if i >= len(snaps) || !reflect.DeepEqual(snaps[i], wantSnap) {
			c.add(false, "stream %d final predictor differs from the oracle", i)
		}
	}
	return c
}

func sum(v []uint64) uint64 {
	var n uint64
	for _, x := range v {
		n += x
	}
	return n
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func (s *serveW) results() (map[string]float64, map[string]float64) {
	st := s.c.Srv.Stats()
	var lats []float64
	for _, cl := range s.c.Clients {
		for _, l := range cl.LatNs {
			lats = append(lats, float64(l))
		}
	}
	sort.Float64s(lats)
	rs := s.c.Tr.Stats()
	det := map[string]float64{
		"sim_time_ms":                float64(s.c.Eng.Now()) / 1e6,
		"sim_p50_ns":                 percentile(lats, 0.50),
		"sim_p99_ns":                 percentile(lats, 0.99),
		"sim.events":                 float64(s.c.Eng.Fired()),
		"trace.records":              float64(len(s.recs)),
		"serve.applied":              float64(st.Applied),
		"serve.hit_ratio":            float64(st.PredHits) / float64(max(st.Applied, 1)),
		"serve.shed":                 float64(sum(st.Shed)),
		"serve.timed_out":            float64(sum(st.TimedOut)),
		"serve.checkpoints":          float64(st.Checkpoints),
		"serve.max_queue_depth":      float64(st.MaxQueueDepth),
		"reliable.data_sent":         float64(rs.DataSent),
		"reliable.retransmits":       float64(rs.Retransmits),
		"reliable.dups_discarded":    float64(rs.DupsDiscarded),
		"reliable.held_out_of_order": float64(rs.HeldOutOfOrder),
	}
	det["serve.wal_bytes"], det["serve.snapshot_bytes"] = storeBytes(s.dir)
	timing := map[string]float64{
		"obs_per_s":        float64(st.Applied) / s.spans["serve.run_s"],
		"sim_events_per_s": float64(s.c.Eng.Fired()) / s.spans["serve.run_s"],
	}
	for k, v := range s.spans {
		timing[k] = v
	}
	return det, timing
}

// storeBytes sums the WAL and snapshot file sizes left in a store.
func storeBytes(dir string) (wal, snap float64) {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(e.Name(), "wal-"):
			wal += float64(info.Size())
		case strings.HasPrefix(e.Name(), "snap-"):
			snap += float64(info.Size())
		}
	}
	return wal, snap
}

// probe times Store.Recover on the finished store, replays the streams
// into bare predictors and times the workload generator.
func (s *serveW) probe() (map[string]float64, error) {
	out := map[string]float64{}
	start := time.Now()
	store, err := serve.OpenStore(s.dir)
	if err != nil {
		return nil, err
	}
	if _, err := store.Recover(); err != nil {
		return nil, err
	}
	out["serve.recover_s"] = time.Since(start).Seconds()
	r, err := newReplayer(s.pcfg, serveNodes)
	if err != nil {
		return nil, err
	}
	r.feed(s.recs)
	r.into(out)
	app, err := workload.ByName("dsmc", s.cfg.Machine.Nodes, s.cfg.Scale)
	if err != nil {
		return nil, err
	}
	var n uint64
	out["workload.gen_s"], n = generate(app)
	out["workload.accesses"] = float64(n)
	return out, nil
}

func (s *serveW) cleanup() {
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}
