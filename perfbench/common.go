package main

import (
	"time"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/machine"
	"github.com/cosmos-coherence/cosmos/internal/trace"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// maxSimEvents bounds one simulation, as package experiments does.
const maxSimEvents = 2_000_000_000

// counters sums the public layer counters of finished machines.
type counters struct {
	events, accesses                                 uint64
	msgs, dataMsgs, localMsgs, dropped, duplicated   uint64
	dataSent, retx, dups, held                       uint64
	dirTx, dirInvals, dirQueued, overflows, wideInvs uint64
	cacheMisses, cacheInvals                         uint64
}

func (c *counters) addMachine(m *machine.Machine) {
	c.events += m.Engine().Fired()
	c.accesses += m.Accesses()
	ns := m.Network().Stats()
	c.msgs += ns.MessagesSent
	c.dataMsgs += ns.DataMessages
	c.localMsgs += ns.LocalMessages
	c.dropped += ns.FaultDropped
	c.duplicated += ns.FaultDuplicated
	if tr := m.Transport(); tr != nil {
		rs := tr.Stats()
		c.dataSent += rs.DataSent
		c.retx += rs.Retransmits
		c.dups += rs.DupsDiscarded
		c.held += rs.HeldOutOfOrder
	}
	for n := 0; n < m.Geometry().Nodes(); n++ {
		id := coherence.NodeID(n)
		tx, invals, _, queued := m.Directory(id).Stats()
		c.dirTx += tx
		c.dirInvals += invals
		c.dirQueued += queued
		_, _, loadMiss, storeMiss, upgradeMiss, cInvals := m.Cache(id).Stats()
		c.cacheMisses += loadMiss + storeMiss + upgradeMiss
		c.cacheInvals += cInvals
	}
	ov, wide := m.FormatStats()
	c.overflows += ov
	c.wideInvs += wide
}

func (c counters) into(out map[string]float64) {
	for k, v := range map[string]uint64{
		"sim.events":                 c.events,
		"workload.accesses":          c.accesses,
		"network.msgs":               c.msgs,
		"network.data_msgs":          c.dataMsgs,
		"network.local_msgs":         c.localMsgs,
		"network.fault_dropped":      c.dropped,
		"network.fault_duplicated":   c.duplicated,
		"reliable.data_sent":         c.dataSent,
		"reliable.retransmits":       c.retx,
		"reliable.dups_discarded":    c.dups,
		"reliable.held_out_of_order": c.held,
		"stache.dir_transactions":    c.dirTx,
		"stache.dir_invals":          c.dirInvals,
		"stache.dir_queued":          c.dirQueued,
		"stache.dir_overflows":       c.overflows,
		"stache.dir_wide_invals":     c.wideInvs,
		"stache.cache_misses":        c.cacheMisses,
		"stache.cache_invals":        c.cacheInvals,
	} {
		out[k] = float64(v)
	}
}

// generate walks every (processor, phase) of app through
// workload.AppendAccesses and returns the time taken and the number of
// accesses generated.
func generate(app workload.App) (float64, uint64) {
	start := time.Now()
	var buf []workload.Access
	var n uint64
	for p := 0; p < app.Procs(); p++ {
		for it := 0; it < app.Iterations(); it++ {
			buf = workload.AppendAccesses(app, buf[:0], p, it)
			n += uint64(len(buf))
		}
	}
	return time.Since(start).Seconds(), n
}

// replayer feeds trace records into one bare predictor per (node, side)
// slot and times only the Observe calls.
type replayer struct {
	preds    []*core.Predictor
	observes uint64
	dur      time.Duration
}

func newReplayer(cfg core.Config, nodes int) (*replayer, error) {
	r := &replayer{preds: make([]*core.Predictor, 2*nodes)}
	for i := range r.preds {
		p, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		r.preds[i] = p
	}
	return r, nil
}

func (r *replayer) feed(recs []trace.Record) {
	start := time.Now()
	for _, rec := range recs {
		r.preds[int(rec.Node)*2+int(rec.Side)].Observe(rec.Addr, rec.Tuple())
	}
	r.dur += time.Since(start)
	r.observes += uint64(len(recs))
}

// into adds the replay's totals to out; several replays accumulate.
func (r *replayer) into(out map[string]float64) {
	var pht uint64
	for _, p := range r.preds {
		pht += p.PHTEntries()
	}
	out["core.observes"] += float64(r.observes)
	out["core.pht_entries"] += float64(pht)
	out["core.observe_s"] += r.dur.Seconds()
}
