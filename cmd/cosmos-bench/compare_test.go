package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSnapshotFile(t *testing.T, path string, snaps ...Snapshot) {
	t.Helper()
	data, err := json.Marshal(File{Snapshots: snaps})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareSnapshotsDeltas(t *testing.T) {
	oldSnap := Snapshot{Label: "base", Date: "2026-01-01", Benchmarks: []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 512, AllocsPerOp: 8},
		{Name: "BenchmarkB", NsPerOp: 2000},
		{Name: "BenchmarkGone", NsPerOp: 10},
	}}
	newSnap := Snapshot{Label: "next", Date: "2026-01-02", Benchmarks: []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 500, BytesPerOp: 256, AllocsPerOp: 4}, // improved
		{Name: "BenchmarkB", NsPerOp: 2500},                                 // 25% regression
		{Name: "BenchmarkNew", NsPerOp: 7},
	}}
	var buf bytes.Buffer
	regressed, allocRegressed := compareSnapshots(&buf, oldSnap, newSnap, 10, -1)
	if len(regressed) != 1 || regressed[0] != "BenchmarkB" {
		t.Fatalf("regressed = %v, want [BenchmarkB]", regressed)
	}
	if len(allocRegressed) != 0 {
		t.Fatalf("disabled alloc gate still flags %v", allocRegressed)
	}
	out := buf.String()
	for _, want := range []string{"-50.0%", "+25.0%", "REGRESSION", "(missing in new)", "(new)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// A generous threshold passes the same pair.
	if regressed, _ := compareSnapshots(&bytes.Buffer{}, oldSnap, newSnap, 30, -1); len(regressed) != 0 {
		t.Fatalf("threshold 30%% still flags %v", regressed)
	}
}

func TestCompareAllocThresholdGate(t *testing.T) {
	oldSnap := Snapshot{Label: "base", Benchmarks: []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100},
	}}
	newSnap := Snapshot{Label: "next", Benchmarks: []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 150}, // 50% more allocations, same speed
	}}
	var buf bytes.Buffer
	regressed, allocRegressed := compareSnapshots(&buf, oldSnap, newSnap, 10, 25)
	if len(regressed) != 0 {
		t.Fatalf("ns gate flagged %v on unchanged ns/op", regressed)
	}
	if len(allocRegressed) != 1 || allocRegressed[0] != "BenchmarkA" {
		t.Fatalf("allocRegressed = %v, want [BenchmarkA]", allocRegressed)
	}
	if !strings.Contains(buf.String(), "ALLOC REGRESSION") {
		t.Errorf("output missing alloc regression marker:\n%s", buf.String())
	}

	// The same pair passes with the gate disabled, and end-to-end the
	// gate turns into a nonzero exit naming the benchmark.
	if _, ar := compareSnapshots(&bytes.Buffer{}, oldSnap, newSnap, 10, -1); len(ar) != 0 {
		t.Fatalf("disabled gate flagged %v", ar)
	}
	dir := t.TempDir()
	oldPath, newPath := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	writeSnapshotFile(t, oldPath, oldSnap)
	writeSnapshotFile(t, newPath, newSnap)
	err := compareFiles(&bytes.Buffer{}, oldPath, newPath, 10, 25)
	if err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("alloc gate error = %v, want allocs/op regression naming BenchmarkA", err)
	}

	// A zero-allocation baseline has no percentage to grow by, so any
	// allocation at all trips the gate, at any threshold; staying at
	// zero does not.
	zeroOld := Snapshot{Label: "base", Benchmarks: []Benchmark{
		{Name: "BenchmarkZero", NsPerOp: 100},
		{Name: "BenchmarkStillZero", NsPerOp: 100},
	}}
	zeroNew := Snapshot{Label: "next", Benchmarks: []Benchmark{
		{Name: "BenchmarkZero", NsPerOp: 100, AllocsPerOp: 3},
		{Name: "BenchmarkStillZero", NsPerOp: 100},
	}}
	buf.Reset()
	if _, ar := compareSnapshots(&buf, zeroOld, zeroNew, 10, 1000); len(ar) != 1 || ar[0] != "BenchmarkZero" {
		t.Fatalf("zero-baseline allocRegressed = %v, want [BenchmarkZero]", ar)
	}
	if !strings.Contains(buf.String(), "ALLOC REGRESSION") {
		t.Errorf("output missing alloc regression marker for the zero baseline:\n%s", buf.String())
	}
	if _, ar := compareSnapshots(&bytes.Buffer{}, zeroOld, zeroNew, 10, -1); len(ar) != 0 {
		t.Fatalf("disabled gate flagged %v on the zero baseline", ar)
	}
}

func TestCompareFilesExitBehavior(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	// Latest snapshot wins: the stale first snapshot would regress, the
	// appended second one is fine.
	writeSnapshotFile(t, oldPath, Snapshot{Label: "base", Benchmarks: []Benchmark{{Name: "BenchmarkA", NsPerOp: 100}}})
	writeSnapshotFile(t, newPath,
		Snapshot{Label: "stale", Benchmarks: []Benchmark{{Name: "BenchmarkA", NsPerOp: 900}}},
		Snapshot{Label: "current", Benchmarks: []Benchmark{{Name: "BenchmarkA", NsPerOp: 105}}},
	)
	if err := compareFiles(&bytes.Buffer{}, oldPath, newPath, 10, -1); err != nil {
		t.Fatalf("within-threshold compare failed: %v", err)
	}

	writeSnapshotFile(t, newPath, Snapshot{Label: "slow", Benchmarks: []Benchmark{{Name: "BenchmarkA", NsPerOp: 300}}})
	err := compareFiles(&bytes.Buffer{}, oldPath, newPath, 10, -1)
	if err == nil {
		t.Fatal("3x regression passed the gate")
	}
	if !strings.Contains(err.Error(), "BenchmarkA") {
		t.Fatalf("gate error %q does not name the benchmark", err)
	}

	if err := compareFiles(&bytes.Buffer{}, filepath.Join(dir, "absent.json"), newPath, 10, -1); err == nil {
		t.Fatal("missing old file accepted")
	}
	writeSnapshotFile(t, oldPath) // no snapshots
	if err := compareFiles(&bytes.Buffer{}, oldPath, newPath, 10, -1); err == nil {
		t.Fatal("empty snapshot list accepted")
	}
}
