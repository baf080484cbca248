package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// Span is one timed call the benchmark made into a layer of the
// program. Parent is the index of the enclosing span (-1 for a root).
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// Tracer keeps spans in memory; they are written out when the run
// ends. A nil *Tracer records nothing, so the untraced path calls the
// same helpers.
type Tracer struct {
	origin time.Time
	spans  []Span
	open   []int
}

func newTracer() *Tracer { return &Tracer{origin: time.Now()} }

// span runs fn inside a named span and returns its duration in seconds,
// which the untraced path uses too.
func (t *Tracer) span(name string, fn func() error) (float64, error) {
	if t == nil {
		return timed(fn)
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, Span{Name: name, Parent: parent})
	t.open = append(t.open, idx)
	start := time.Now()
	err := fn()
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	t.spans[idx].Start = start.Sub(t.origin).Nanoseconds()
	t.spans[idx].End = end.Sub(t.origin).Nanoseconds()
	return end.Sub(start).Seconds(), err
}

// modulePrefix is the import path prefix of every package in the repo.
const modulePrefix = "github.com/cosmos-coherence/cosmos/"

// layerOf maps a repo package (path below the module) to the layer its
// CPU samples are charged to. Packages absent from the map are
// vocabulary shared by every layer (coherence, model, directed): a
// sample there is charged to the nearest enclosing frame that has a
// layer.
var layerOf = map[string]string{
	"internal/sim":         "sim",
	"internal/network":     "network",
	"internal/topology":    "network",
	"internal/faults":      "network",
	"internal/reliable":    "reliable",
	"internal/stache":      "stache",
	"internal/workload":    "workload",
	"internal/machine":     "machine",
	"internal/trace":       "trace",
	"internal/tracecache":  "trace",
	"internal/core":        "core",
	"internal/stats":       "stats",
	"internal/experiments": "experiments",
	"internal/parallel":    "experiments",
	"internal/report":      "experiments",
	"internal/serve":       "serve",
	"internal/invariant":   "invariant",
	"internal/speculate":   "speculate",
	"internal/governor":    "speculate",
	"internal/chaos":       "chaos",
	"perfbench":            "bench", // package main, as named inside its test binary
}

// layers lists every layer of the budget. The benchmark's own frames
// (package main) are "bench"; samples with no repo frame on their stack
// (GC, scheduler, syscalls) go to "runtime".
var layers = []string{
	"sim", "network", "reliable", "stache", "workload", "machine", "trace",
	"core", "stats", "experiments", "serve", "invariant", "speculate",
	"chaos", "bench", "runtime",
}

// funcLayer returns the layer of a fully qualified function name, or ""
// when the function is outside every layer. Repo package paths contain
// no dots, so the first dot after the module prefix ends the package.
func funcLayer(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	return layerOf[rest]
}

// Budget is the per-layer self time of one CPU profile.
type Budget struct {
	SelfS  map[string]float64
	TotalS float64
}

// profile captures a CPU profile of fn and attributes every sample to
// the innermost stack frame that belongs to a layer.
func profile(fn func() error) (Budget, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return Budget{}, fmt.Errorf("starting cpu profile: %w", err)
	}
	ferr := fn()
	pprof.StopCPUProfile()
	if ferr != nil {
		return Budget{}, ferr
	}
	return attribute(buf.Bytes())
}

// attribute decodes a gzipped pprof profile.proto and charges each
// sample's CPU time to a layer.
func attribute(gz []byte) (Budget, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return Budget{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return Budget{}, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return Budget{}, err
	}
	// The CPU profile's sample values are [count, nanoseconds].
	valIdx := p.sampleTypes - 1
	b := Budget{SelfS: make(map[string]float64, len(layers))}
	for _, l := range layers {
		b.SelfS[l] = 0
	}
	for _, s := range p.samples {
		if valIdx < 0 || valIdx >= len(s.values) {
			return Budget{}, errors.New("profile: sample without a time value")
		}
		sec := float64(s.values[valIdx]) / 1e9
		layer := "runtime"
	walk:
		for _, locID := range s.locs {
			// A location lists its inlined frames innermost first.
			for _, fnID := range p.locFuncs[locID] {
				if l := funcLayer(p.strings[p.funcName[fnID]]); l != "" {
					layer = l
					break walk
				}
			}
		}
		b.SelfS[layer] += sec
		b.TotalS += sec
	}
	return b, nil
}

// pprofProfile holds the few fields of profile.proto the attribution
// needs.
type pprofProfile struct {
	sampleTypes int
	samples     []pprofSample
	locFuncs    map[uint64][]uint64
	funcName    map[uint64]int64
	strings     []string
}

type pprofSample struct {
	locs   []uint64
	values []int64
}

// protoField is one decoded protobuf field: a varint or a byte run.
type protoField struct {
	num   int
	wire  int
	value uint64
	bytes []byte
}

// protoFields decodes one protobuf message into its top-level fields.
func protoFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad field key")
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errors.New("profile: bad varint")
			}
			f.value, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("profile: short fixed64")
			}
			f.value, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("profile: bad length")
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("profile: short fixed32")
			}
			f.value, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// uints decodes a repeated integer field, packed or not.
func uints(f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.value}, nil
	}
	var out []uint64
	b := f.bytes
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}

// parseProfile decodes the profile.proto fields: sample_type (1),
// sample (2), location (4), function (5) and string_table (6).
func parseProfile(raw []byte) (*pprofProfile, error) {
	top, err := protoFields(raw)
	if err != nil {
		return nil, err
	}
	p := &pprofProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	for _, f := range top {
		if f.wire != 2 {
			continue
		}
		if f.num == 6 {
			p.strings = append(p.strings, string(f.bytes))
			continue
		}
		sub, err := protoFields(f.bytes)
		if err != nil {
			return nil, err
		}
		switch f.num {
		case 1: // ValueType
			p.sampleTypes++
		case 2: // Sample{location_id=1, value=2}
			var s pprofSample
			for _, g := range sub {
				vs, err := uints(g)
				if err != nil {
					return nil, err
				}
				switch g.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // Location{id=1, line=4{function_id=1}}
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch {
				case g.num == 1 && g.wire == 0:
					id = g.value
				case g.num == 4 && g.wire == 2:
					line, err := protoFields(g.bytes)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == 1 && h.wire == 0 {
							fns = append(fns, h.value)
						}
					}
				}
			}
			p.locFuncs[id] = fns
		case 5: // Function{id=1, name=2}
			var id uint64
			var name int64
			for _, g := range sub {
				switch {
				case g.num == 1 && g.wire == 0:
					id = g.value
				case g.num == 2 && g.wire == 0:
					name = int64(g.value)
				}
			}
			p.funcName[id] = name
		}
	}
	for _, name := range p.funcName {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name outside the string table")
		}
	}
	return p, nil
}

// selfTimes computes each span's self time: its duration minus the part
// covered by its direct children.
func selfTimes(spans []Span) map[string]float64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Name] += float64(s.End-s.Start-child[i]) / 1e9
	}
	return out
}

// sortedKeys returns m's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
