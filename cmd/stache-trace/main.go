// Command stache-trace generates, saves, and inspects coherence
// message traces: the raw material of the paper's methodology
// (Section 5). Traces are written in the versioned binary format of
// internal/trace and can be re-read by cosmos-predict.
//
// Usage:
//
//	stache-trace -app moldyn -scale medium -o moldyn.trace   # simulate & save
//	stache-trace -app dsmc -fault-drop 0.02 -o dsmc.trace    # simulate on a lossy wire
//	stache-trace -in moldyn.trace -dump | head               # dump as text
//	stache-trace -in moldyn.trace -summary                   # per-type counts
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/experiments"
	"github.com/cosmos-coherence/cosmos/internal/faults"
	"github.com/cosmos-coherence/cosmos/internal/trace"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "stache-trace:", err)
		os.Exit(1)
	}
}

// run drives the whole command against an explicit writer and argument
// list, so tests can compare its output byte for byte.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("stache-trace", flag.ContinueOnError)
	var (
		app     = fs.String("app", "", "benchmark to simulate (appbt|barnes|dsmc|moldyn|unstructured)")
		scale   = fs.String("scale", "medium", "workload scale: small | medium | full")
		out     = fs.String("o", "", "write the captured trace to this file")
		in      = fs.String("in", "", "read a previously saved trace instead of simulating")
		dump    = fs.Bool("dump", false, "dump the trace as text to stdout")
		summary = fs.Bool("summary", false, "print per-message-type and per-side counts")
		halfMig = fs.Bool("halfmigratory", true, "enable the Stache half-migratory optimization")
		inv     = fs.Bool("invariants", false, "simulate with the runtime coherence invariant monitor")
	)
	ff := faults.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tr *trace.Trace
	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err = trace.Read(f)
		if err != nil {
			return err
		}
	case *app != "":
		cfg := experiments.DefaultConfig()
		sc, ok := experiments.ScaleFor(*scale)
		if !ok {
			return fmt.Errorf("unknown scale %q", *scale)
		}
		cfg.Scale = sc
		cfg.Stache.HalfMigratory = *halfMig
		cfg.Machine.Faults = ff.Plan()
		cfg.Machine.Invariants = *inv
		wl, err := workload.ByName(*app, cfg.Machine.Nodes, sc)
		if err != nil {
			return err
		}
		tr, err = experiments.Run(wl, cfg)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need either -app (simulate) or -in (load); see -h")
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := trace.Write(f, tr); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d records to %s\n", len(tr.Records), *out)
	}

	if *dump {
		if err := trace.WriteText(w, tr); err != nil {
			return err
		}
	}

	if *summary || (!*dump && *out == "") {
		printSummary(w, tr)
	}
	return nil
}

func printSummary(w io.Writer, tr *trace.Trace) {
	cache, dir := tr.CountBySide()
	fmt.Fprintf(w, "trace: app=%s nodes=%d iterations=%d records=%d (%d cache / %d directory)\n",
		tr.App, tr.Nodes, tr.Iterations, len(tr.Records), cache, dir)

	counts := map[coherence.MsgType]uint64{}
	blocks := map[coherence.Addr]bool{}
	for _, r := range tr.Records {
		counts[r.Type]++
		blocks[r.Addr] = true
	}
	fmt.Fprintf(w, "distinct blocks: %d\n", len(blocks))

	type kv struct {
		t coherence.MsgType
		n uint64
	}
	var rows []kv
	for t, n := range counts {
		rows = append(rows, kv{t, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].t < rows[j].t // tie-break so output never depends on map order
	})
	fmt.Fprintln(w, "messages by type:")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %10d (%.1f%%)\n", r.t, r.n, 100*float64(r.n)/float64(len(tr.Records)))
	}
}
