package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/chaos"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/serve"
)

// Each workload check must report a planted mismatch as a failed op.

func TestTablesCheckReportsPlantedMismatch(t *testing.T) {
	expected, err := expectedTables(filepath.Join("..", "docs", "RESULTS.txt"))
	if err != nil {
		t.Fatal(err)
	}
	rendered := strings.Join(expected, "\n\n") + "\n"
	if c := checkTables(rendered, expected, nil); c.Failed != 0 || c.Attempted != len(expected) {
		t.Fatalf("clean tables: %+v", c)
	}
	planted := append([]string(nil), expected...)
	planted[4] = strings.Replace(planted[4], "84", "85", 1)
	if planted[4] == expected[4] {
		t.Fatalf("row %q has no cell to edit", expected[4])
	}
	if c := checkTables(rendered, planted, nil); c.Failed != 1 || c.Attempted != len(expected) {
		t.Fatalf("planted row: want 1 of %d failed, got %+v", len(expected), c)
	}
	if c := checkTables(rendered, expected, os.ErrNotExist); c.Failed != 1 {
		t.Fatalf("missing expected file: %+v", c)
	}
}

func TestScaleCheckReportsPlantedMismatch(t *testing.T) {
	if c := checkScale(scaleMessages, 95.59); c.Failed != 0 {
		t.Fatalf("pinned cell: %+v", c)
	}
	for _, c := range []checkResult{checkScale(scaleMessages+56, 95.59), checkScale(scaleMessages, 95.4)} {
		if c.Failed != 1 || c.Attempted != 1 {
			t.Fatalf("planted cell: %+v", c)
		}
	}
}

func TestServeCheckReportsPlantedMismatch(t *testing.T) {
	pcfg := core.Config{Depth: 2, FilterMax: 1}
	obs := serve.GenWorkload(1, 3, 40)
	var recv [][]serve.Response
	var snaps [][]byte
	for _, o := range obs {
		r, s, err := serve.Oracle(pcfg, o)
		if err != nil {
			t.Fatal(err)
		}
		recv, snaps = append(recv, r), append(snaps, s)
	}
	st := serve.Stats{Shed: make([]uint64, 3), TimedOut: make([]uint64, 3), Dropped: make([]uint64, 3)}
	if c := checkServe(pcfg, obs, recv, snaps, st, nil); c.Failed != 0 || c.Attempted != 120 {
		t.Fatalf("clean serve: %+v", c)
	}
	recv[1][7].OK = !recv[1][7].OK
	if c := checkServe(pcfg, obs, recv, snaps, st, nil); c.Failed != 1 {
		t.Fatalf("planted response: %+v", c)
	}
	recv[1][7].OK = !recv[1][7].OK
	st.Shed[2] = 2
	if c := checkServe(pcfg, obs, recv, snaps, st, nil); c.Failed != 2 {
		t.Fatalf("shed observations: %+v", c)
	}
}

func TestChaosCheckReportsPlantedMismatch(t *testing.T) {
	res := []chaos.Result{{Seed: 1, Outcome: chaos.OutcomeOK}, {Seed: 2, Outcome: chaos.OutcomeOK}}
	if c := checkChaos(res, 2); c.Failed != 0 || c.Attempted != 2 {
		t.Fatalf("clean sweep: %+v", c)
	}
	res[1].Outcome = chaos.OutcomeStall
	if c := checkChaos(res, 2); c.Failed != 1 {
		t.Fatalf("planted stall: %+v", c)
	}
	if c := checkChaos(res[:1], 2); c.Failed != 1 || c.Attempted != 2 {
		t.Fatalf("missing seed: %+v", c)
	}
}

func TestDeterminismCheck(t *testing.T) {
	its := []Iteration{{Det: map[string]float64{"sim.events": 5}}, {Det: map[string]float64{"sim.events": 5}}}
	if c := checkDeterminism(its); c.Failed != 0 {
		t.Fatalf("equal counts: %+v", c)
	}
	its[1].Det["sim.events"] = 6
	if c := checkDeterminism(its); c.Failed != 1 {
		t.Fatalf("differing counts: %+v", c)
	}
}

// The metric lists in the code must match BENCHMARK.json.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}

func TestFuncLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/cosmos-coherence/cosmos/internal/sim.(*Engine).Step":      "sim",
		"github.com/cosmos-coherence/cosmos/internal/topology.Mesh.Route":     "network",
		"github.com/cosmos-coherence/cosmos/internal/stats.Evaluate.func1":    "stats",
		"github.com/cosmos-coherence/cosmos/internal/coherence.Geometry.Home": "",
		"main.(*tables).run": "bench",
		"runtime.mallocgc":   "",
		"github.com/cosmos-coherence/cosmos/internal/governor.(*Gov).Allow[...]": "speculate",
	} {
		if got := funcLayer(fn); got != want {
			t.Errorf("funcLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}

// A real profile's layer budget accounts for every sample.
func TestProfileBudgetSumsToTotal(t *testing.T) {
	b, err := profile(func() error {
		var x uint64
		for i := 0; i < 50_000_000; i++ {
			x = x*31 + uint64(i)
		}
		sink = x
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range layers {
		sum += b.SelfS[l]
	}
	if b.TotalS <= 0 || math.Abs(sum-b.TotalS) > 1e-9 {
		t.Fatalf("budget %v sums to %v, total %v", b.SelfS, sum, b.TotalS)
	}
	if b.SelfS["bench"] == 0 {
		t.Fatalf("a loop in package main was not charged to bench: %v", b.SelfS)
	}
}

var sink uint64

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 50, End: 60, Parent: 0},
		{Name: "c", Start: 12, End: 20, Parent: 1},
	}
	got := selfTimes(spans)
	want := map[string]float64{"root": 60e-9, "a": 22e-9, "b": 10e-9, "c": 8e-9}
	for k, v := range want {
		if d := got[k] - v; d > 1e-15 || d < -1e-15 {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}

func TestCompareRefusesOtherHostsAndFlagsCounts(t *testing.T) {
	dir := t.TempDir()
	host := Host{CPU: "cpu", NumCPU: 2, GOMAXPROCS: 2, Go: "go", TmpFS: "ext4"}
	write := func(name string, h Host, events float64) string {
		rec := Record{Workload: "scale1024-mesh", Seed: 1, Traced: true, Host: h, Line: Line{Metrics: map[string]Metric{
			"sim.events": {Value: events, Unit: "count"},
			"sim.self_s": {Value: 1.5, Unit: "s"},
		}}}
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", host, 100)
	other := host
	other.CPU = "another cpu"
	var out strings.Builder
	if code := compareMain(&out, []string{a, write("b.json", other, 100)}); code != 2 || !strings.Contains(out.String(), "DIFFERENT HOSTS") {
		t.Fatalf("other host: exit %d, output %q", code, out.String())
	}
	if code := compareMain(&out, []string{a, write("c.json", host, 100)}); code != 0 {
		t.Fatalf("same counts: exit %d", code)
	}
	if code := compareMain(&out, []string{a, write("d.json", host, 101)}); code != 1 {
		t.Fatalf("differing count: exit %d", code)
	}
}

func TestParseCPUList(t *testing.T) {
	for list, want := range map[string][]int{
		"0":       {0},
		"0-1":     {0, 1},
		"0,2-4,7": {0, 2, 3, 4, 7},
		"":        nil,
	} {
		if got := parseCPUList(list); !slices.Equal(got, want) {
			t.Errorf("parseCPUList(%q) = %v, want %v", list, got, want)
		}
	}
}

func TestStolenFrom(t *testing.T) {
	at := func(busy, steal float64) cpuTimes { return cpuTimes{busy, steal} }
	for _, c := range []struct {
		name string
		b    cpuTimes
		want float64
	}{
		{"one busy CPU", at(9, 1), 1},
		{"two busy CPUs", at(18, 2), 1},
		{"no steal", at(20, 0), 0},
		{"idle", at(0, 0), 0},
	} {
		if got := stolenFrom(10, at(0, 0), c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: stolenFrom = %v, want %v", c.name, got, c.want)
		}
	}
}
