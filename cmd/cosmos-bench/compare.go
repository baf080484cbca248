package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// compareFiles loads two snapshot files and diffs their latest
// snapshots. It returns an error (nonzero exit) when any benchmark's
// ns/op regressed by more than threshold percent, or — with
// allocThreshold >= 0 — when any benchmark's allocs/op regressed by
// more than allocThreshold percent. Allocation counts are deterministic
// where wall time is noisy, so the alloc gate is typically far tighter
// than the ns gate.
func compareFiles(w io.Writer, oldPath, newPath string, threshold, allocThreshold float64) error {
	oldSnap, err := latestSnapshot(oldPath)
	if err != nil {
		return err
	}
	newSnap, err := latestSnapshot(newPath)
	if err != nil {
		return err
	}
	regressed, allocRegressed := compareSnapshots(w, oldSnap, newSnap, threshold, allocThreshold)
	if len(regressed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond %.1f%% on ns/op: %v",
			len(regressed), threshold, regressed)
	}
	if len(allocRegressed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond %.1f%% on allocs/op: %v",
			len(allocRegressed), allocThreshold, allocRegressed)
	}
	return nil
}

// latestSnapshot reads a snapshot file and returns its last (most
// recently appended) snapshot.
func latestSnapshot(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	var file File
	if err := json.Unmarshal(data, &file); err != nil {
		return Snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(file.Snapshots) == 0 {
		return Snapshot{}, fmt.Errorf("%s: no snapshots", path)
	}
	return file.Snapshots[len(file.Snapshots)-1], nil
}

// compareSnapshots prints a per-benchmark delta table (ns/op, B/op,
// allocs/op) for every benchmark present in both snapshots, notes the
// ones present in only one, and returns the names whose ns/op
// (respectively allocs/op) regressed beyond their thresholds. An
// allocThreshold < 0 disables the allocation gate. Benchmarks are
// walked in the old snapshot's order, so output is deterministic.
func compareSnapshots(w io.Writer, oldSnap, newSnap Snapshot, threshold, allocThreshold float64) (regressed, allocRegressed []string) {
	newBy := make(map[string]Benchmark, len(newSnap.Benchmarks))
	for _, b := range newSnap.Benchmarks {
		newBy[b.Name] = b
	}
	if allocThreshold >= 0 {
		fmt.Fprintf(w, "comparing %q (%s) -> %q (%s), ns/op gate %.1f%%, allocs/op gate %.1f%%\n",
			oldSnap.Label, oldSnap.Date, newSnap.Label, newSnap.Date, threshold, allocThreshold)
	} else {
		fmt.Fprintf(w, "comparing %q (%s) -> %q (%s), ns/op gate %.1f%%\n",
			oldSnap.Label, oldSnap.Date, newSnap.Label, newSnap.Date, threshold)
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\told ns/op\tnew ns/op\tdelta\tB/op\tallocs/op")
	seen := make(map[string]bool, len(oldSnap.Benchmarks))
	for _, ob := range oldSnap.Benchmarks {
		seen[ob.Name] = true
		nb, ok := newBy[ob.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t%.0f\t-\t(missing in new)\t\t\n", ob.Name, ob.NsPerOp)
			continue
		}
		d := pctDelta(ob.NsPerOp, nb.NsPerOp)
		marker := ""
		if d > threshold {
			marker = "  REGRESSION"
			regressed = append(regressed, ob.Name)
		}
		allocMarker := ""
		if allocThreshold >= 0 && allocRegression(ob.AllocsPerOp, nb.AllocsPerOp, allocThreshold) {
			allocMarker = "  ALLOC REGRESSION"
			allocRegressed = append(allocRegressed, ob.Name)
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%+.1f%%%s\t%s\t%s%s\n",
			ob.Name, ob.NsPerOp, nb.NsPerOp, d, marker,
			deltaCol(ob.BytesPerOp, nb.BytesPerOp),
			deltaCol(ob.AllocsPerOp, nb.AllocsPerOp), allocMarker)
	}
	for _, nb := range newSnap.Benchmarks {
		if !seen[nb.Name] {
			fmt.Fprintf(tw, "%s\t-\t%.0f\t(new)\t\t\n", nb.Name, nb.NsPerOp)
		}
	}
	tw.Flush()
	return regressed, allocRegressed
}

// pctDelta is the percent change from old to new (positive = slower /
// bigger). A zero old value yields 0: there is no percentage to report
// (allocRegression gates that case separately).
func pctDelta(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return 100 * (new - old) / old
}

// allocRegression reports whether allocs/op grew beyond threshold
// percent. A zero-allocation baseline has no percentage to grow by, so
// any allocation at all regresses it: an allocation-free hot path is
// exactly what the gate exists to keep.
func allocRegression(old, new, threshold float64) bool {
	if old == 0 {
		return new > 0
	}
	return pctDelta(old, new) > threshold
}

// deltaCol renders an auxiliary metric column as "old->new (+x%)".
func deltaCol(old, new float64) string {
	if old == 0 && new == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f->%.0f (%+.1f%%)", old, new, pctDelta(old, new))
}
