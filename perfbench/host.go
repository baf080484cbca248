package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// Host records where a result was measured. Results from different
// hosts are not compared.
type Host struct {
	CPU    string `json:"cpu_model"`
	NumCPU int    `json:"nproc"`
	// CPUSet lists the CPUs the process may run on (Cpus_allowed_list);
	// their steal time is taken out of wall_s.
	CPUSet     string `json:"cpu_set"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	TmpFS      string `json:"tmp_filesystem"`
}

// sameMachine reports the fields that make two hosts incomparable.
func (h Host) sameMachine(o Host) []string {
	var diffs []string
	add := func(name string, a, b any) {
		if a != b {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", name, a, b))
		}
	}
	add("cpu_model", h.CPU, o.CPU)
	add("nproc", h.NumCPU, o.NumCPU)
	add("cpu_set", h.CPUSet, o.CPUSet)
	add("gomaxprocs", h.GOMAXPROCS, o.GOMAXPROCS)
	add("go_version", h.Go, o.Go)
	add("tmp_filesystem", h.TmpFS, o.TmpFS)
	return diffs
}

func hostInfo(root, tmp string) Host {
	h := Host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		CPUSet:     cpuSetList(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
		SourceHash: sourceHash(root),
		TmpFS:      fsType(tmp),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			h.Commit = rev
			if modified == "true" {
				h.Commit += "+modified"
			}
		}
	}
	return h
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuSetList is this process's Cpus_allowed_list, or "" where the
// kernel does not report it.
func cpuSetList() string {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return ""
	}
	for _, l := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(l, "Cpus_allowed_list:"); ok {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// parseCPUList expands a kernel CPU list such as "0-2,5" to CPU numbers.
func parseCPUList(list string) []int {
	var cpus []int
	for _, part := range strings.Split(list, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			continue
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				continue
			}
		}
		for c := a; c <= b; c++ {
			cpus = append(cpus, c)
		}
	}
	return cpus
}

// userHZ is the unit of /proc/stat's times (USER_HZ, 100 on Linux).
const userHZ = 100

// cpuTimes is the busy and the steal time so far of a set of CPUs, in
// seconds (/proc/stat, 10 ms resolution). Steal is time a virtual CPU
// was ready to run but the hypervisor ran something else.
type cpuTimes struct{ busy, steal float64 }

// readCPUTimes sums the times of the given CPUs; where /proc/stat is not
// readable both are 0, so nothing is taken as stolen.
func readCPUTimes(cpus []int) cpuTimes {
	var t cpuTimes
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	want := map[string]bool{}
	for _, c := range cpus {
		want["cpu"+strconv.Itoa(c)] = true
	}
	for _, l := range strings.Split(string(data), "\n") {
		f := strings.Fields(l)
		if len(f) < 9 || !want[f[0]] {
			continue
		}
		var v [8]float64 // user nice system idle iowait irq softirq steal
		for i := range v {
			v[i], _ = strconv.ParseFloat(f[i+1], 64)
		}
		t.busy += (v[0] + v[1] + v[2] + v[5] + v[6]) / userHZ
		t.steal += v[7] / userHZ
	}
	return t
}

// stolenFrom estimates how much of wall seconds, from a to b, the
// hypervisor took from a thread that was ready to run all along: the
// stolen share of the CPUs' ready time (busy + steal). It is exact for
// one CPU, for CPUs that are all busy, and for busy CPUs beside idle
// ones (an idle virtual CPU accrues no steal).
func stolenFrom(wall float64, a, b cpuTimes) float64 {
	steal := b.steal - a.steal
	ready := b.busy - a.busy + steal
	if steal <= 0 || ready <= 0 {
		return 0
	}
	return wall * steal / ready
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0x01021994: "tmpfs",
		0xEF53:     "ext4",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683e: "btrfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// sourceHash digests the Go sources and go.mod files of the checkout,
// identifying the code measured when no git commit is available.
func sourceHash(root string) string {
	var files []string
	// The callback never fails: unreadable entries are skipped.
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// compareMain prints the metric-by-metric change from result record a
// to result record b. Records from different hosts or of different
// workloads are flagged and not diffed (exit 2); a count that differs
// between two records of the same seed is flagged (exit 1).
func compareMain(w io.Writer, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(w, "usage: perfbench compare <a.json> <b.json>")
		return 2
	}
	var recs [2]Record
	for i, p := range args {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(w, "compare: %s: %v\n", p, err)
			return 2
		}
	}
	a, b := recs[0], recs[1]
	if diffs := a.Host.sameMachine(b.Host); len(diffs) > 0 {
		fmt.Fprintf(w, "compare: DIFFERENT HOSTS, not compared: %s\n", strings.Join(diffs, "; "))
		return 2
	}
	if a.Workload != b.Workload || a.Traced != b.Traced {
		fmt.Fprintf(w, "compare: different runs, not compared: %s trace=%v vs %s trace=%v\n", a.Workload, a.Traced, b.Workload, b.Traced)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-30s %16s %16s %9s\n", "metric", args[0], args[1], "change")
	for _, k := range sortedKeys(a.Line.Metrics) {
		ma, mb := a.Line.Metrics[k], b.Line.Metrics[k]
		va, vb := ma.Value, mb.Value
		change := "="
		if va != vb {
			change = fmt.Sprintf("%+.2f%%", 100*(vb-va)/va)
		}
		flag := ""
		if ma.Unit == "count" && va != vb && a.Seed == b.Seed && !strings.HasPrefix(k, "runtime.") {
			flag = "  COUNT DIFFERS"
			code = 1
		}
		fmt.Fprintf(w, "%-30s %16.6g %16.6g %9s%s\n", k, va, vb, change, flag)
	}
	if a.Host.SourceHash != b.Host.SourceHash {
		fmt.Fprintf(w, "sources differ: %s (%s) vs %s (%s)\n", a.Host.SourceHash, a.Host.Commit, b.Host.SourceHash, b.Host.Commit)
	}
	return code
}
