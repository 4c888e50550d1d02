// Package benchfmt owns the suite's benchmark-snapshot format: the
// rtrbench.bench/v2 schema with raw per-run samples, the parser for
// `go test -bench` text output, backward-compatible loading of v1
// snapshots, and the statistical diff between two snapshots.
//
// v1 (rtrbench.bench/v1) recorded one ns/op number per benchmark — an n=1
// sample that cannot support a statistical comparison. v2 keeps every
// repeated `-count` run as a sample, and adds the golden-digest set from
// `rtrbench verify` so a perf snapshot is pinned to a verified-correct
// build. cmd/benchjson produces snapshots and cmd/benchdiff compares
// them.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// Schema identifiers accepted by Decode.
const (
	SchemaV1 = "rtrbench.bench/v1"
	SchemaV2 = "rtrbench.bench/v2"
)

// Sample is one benchmark run (one output line of `go test -bench`).
type Sample struct {
	Iterations int64   `json:"iterations"`
	NsOp       float64 `json:"ns_op"`
	BOp        *int64  `json:"b_op,omitempty"`
	AllocsOp   *int64  `json:"allocs_op,omitempty"`
	MBs        float64 `json:"mb_s,omitempty"`
}

// Benchmark is one named benchmark with its repeated samples.
type Benchmark struct {
	Name    string   `json:"name"`
	Pkg     string   `json:"pkg,omitempty"`
	Procs   int      `json:"procs,omitempty"`
	Samples []Sample `json:"samples"`
}

// NsOps returns the ns/op sample values.
func (b Benchmark) NsOps() []float64 {
	out := make([]float64, len(b.Samples))
	for i, s := range b.Samples {
		out[i] = s.NsOp
	}
	return out
}

// AllocsOps returns the allocs/op sample values, or nil if the snapshot
// was taken without -benchmem.
func (b Benchmark) AllocsOps() []int64 {
	var out []int64
	for _, s := range b.Samples {
		if s.AllocsOp != nil {
			out = append(out, *s.AllocsOp)
		}
	}
	return out
}

// MaxAllocsOp returns the largest allocs/op across samples; ok is false
// when no sample carries allocation data.
func (b Benchmark) MaxAllocsOp() (max int64, ok bool) {
	for _, v := range b.AllocsOps() {
		if !ok || v > max {
			max, ok = v, true
		}
	}
	return max, ok
}

// Snapshot is one rtrbench.bench/v2 document: the machine context, the
// golden-digest set the build verified against, and the sampled
// benchmarks.
type Snapshot struct {
	Schema string `json:"schema"`
	Date   string `json:"date"`
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPU    string `json:"cpu,omitempty"`
	// GoMaxProcs and NumCPU record the machine shape the samples were taken
	// on (runtime.GOMAXPROCS(0) / runtime.NumCPU()). A Workers/w8 curve
	// measured on one core documents only goroutine overhead, so comparing
	// it against a multi-core run is meaningless — Diff refuses cross-shape
	// comparisons when both sides carry a shape. Zero means unknown
	// (snapshots predating the fields, or decoded v1 documents).
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	NumCPU     int `json:"numcpu,omitempty"`
	// Goldens maps golden-file stem (e.g. "pfl-seed1") to the SHA-256 of
	// the checked-in digest file, tying the snapshot to the exact answers
	// the build produced.
	Goldens    map[string]string `json:"goldens,omitempty"`
	Benchmarks []Benchmark       `json:"benchmarks"`
}

// Shape describes the CPU shape the snapshot was measured on, or "" when
// the snapshot predates shape stamping.
func (s *Snapshot) Shape() string {
	if s.GoMaxProcs == 0 && s.NumCPU == 0 {
		return ""
	}
	return fmt.Sprintf("gomaxprocs=%d/numcpu=%d", s.GoMaxProcs, s.NumCPU)
}

// Lookup returns the benchmark with the given name, if present.
func (s *Snapshot) Lookup(name string) (Benchmark, bool) {
	for _, b := range s.Benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// Add merges one sample into the snapshot: repeated `-count` lines for the
// same (name, pkg, procs) accumulate into that benchmark's sample list, in
// input order, instead of producing duplicate entries.
func (s *Snapshot) Add(name, pkg string, procs int, smp Sample) {
	for i := range s.Benchmarks {
		b := &s.Benchmarks[i]
		if b.Name == name && b.Pkg == pkg && b.Procs == procs {
			b.Samples = append(b.Samples, smp)
			return
		}
	}
	s.Benchmarks = append(s.Benchmarks, Benchmark{
		Name: name, Pkg: pkg, Procs: procs, Samples: []Sample{smp},
	})
}

// v1Benchmark is the flat single-sample shape of rtrbench.bench/v1.
type v1Benchmark struct {
	Name       string  `json:"name"`
	Pkg        string  `json:"pkg"`
	Procs      int     `json:"procs"`
	Iterations int64   `json:"iterations"`
	NsOp       float64 `json:"ns_op"`
	BOp        *int64  `json:"b_op"`
	AllocsOp   *int64  `json:"allocs_op"`
	MBs        float64 `json:"mb_s"`
}

// Decode parses a snapshot document, accepting both schemas: a v1 file is
// converted in place, each flat benchmark becoming a single-sample entry,
// so v1 snapshots (e.g. the checked-in BENCH_2026-08-05.json)
// remain comparable. Single-sample entries can never reach statistical
// significance on their own — stats.Compare guarantees that — so a v1
// baseline is informative but cannot flag.
func Decode(data []byte) (Snapshot, error) {
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return Snapshot{}, fmt.Errorf("benchfmt: not a snapshot document: %w", err)
	}
	switch probe.Schema {
	case SchemaV2:
		var s Snapshot
		if err := json.Unmarshal(data, &s); err != nil {
			return Snapshot{}, fmt.Errorf("benchfmt: bad %s document: %w", SchemaV2, err)
		}
		return s, nil
	case SchemaV1:
		var v1 struct {
			Snapshot
			Benchmarks []v1Benchmark `json:"benchmarks"`
		}
		if err := json.Unmarshal(data, &v1); err != nil {
			return Snapshot{}, fmt.Errorf("benchfmt: bad %s document: %w", SchemaV1, err)
		}
		s := v1.Snapshot
		s.Schema = SchemaV2
		s.Benchmarks = nil
		for _, b := range v1.Benchmarks {
			s.Add(b.Name, b.Pkg, b.Procs, Sample{
				Iterations: b.Iterations, NsOp: b.NsOp,
				BOp: b.BOp, AllocsOp: b.AllocsOp, MBs: b.MBs,
			})
		}
		return s, nil
	default:
		return Snapshot{}, fmt.Errorf("benchfmt: unsupported schema %q (want %s or %s)", probe.Schema, SchemaV1, SchemaV2)
	}
}

// Load reads and decodes one snapshot file (either schema).
func Load(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	s, err := Decode(data)
	if err != nil {
		return Snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Encode renders the snapshot as an indented v2 JSON document with a
// trailing newline.
func (s *Snapshot) Encode() ([]byte, error) {
	s.Schema = SchemaV2
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// cpuSuffix matches the "-N" GOMAXPROCS suffix go test appends to every
// benchmark name (absent only when GOMAXPROCS=1).
var cpuSuffix = regexp.MustCompile(`-(\d+)$`)

// ParseLine parses one `go test -bench` result line of the form
//
//	BenchmarkName-8   100   23492 ns/op   0 B/op   0 allocs/op
//
// into the stripped name, the -cpu procs count, and the sample. ns/op in
// scientific notation (e.g. 6.5e+07, printed by custom ReportMetric values
// and some toolchains for very large timings) parses like any float.
// Unknown trailing metric pairs are ignored, so custom b.ReportMetric units
// do not break parsing. ok is false for lines that are not benchmark
// results (missing iteration count or ns/op).
func ParseLine(line string) (name string, procs int, smp Sample, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", 0, Sample{}, false
	}
	name = fields[0]
	// Strip only a trailing -N: an interior dash (sub-benchmark names like
	// Benchmark/pre-sort-8) belongs to the name, and so does a dash suffix
	// that is not purely numeric.
	if m := cpuSuffix.FindStringSubmatch(name); m != nil {
		if p, err := strconv.Atoi(m[1]); err == nil && p > 0 {
			name, procs = name[:len(name)-len(m[0])], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", 0, Sample{}, false
	}
	smp.Iterations = iters
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				smp.NsOp, seenNs = v, true
			}
		case "B/op":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				smp.BOp = &v
			}
		case "allocs/op":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				smp.AllocsOp = &v
			}
		case "MB/s":
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				smp.MBs = v
			}
		}
	}
	return name, procs, smp, seenNs
}

// ParseStream reads `go test -bench` text output and merges every result
// line into the snapshot via Add, tracking goos/goarch/cpu/pkg header
// lines along the way. Repeated lines for the same benchmark (from -count)
// become that benchmark's sample list.
func (s *Snapshot) ParseStream(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			s.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			s.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			s.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if name, procs, smp, ok := ParseLine(line); ok {
				s.Add(name, pkg, procs, smp)
			}
		}
	}
	return sc.Err()
}

// SplitAlternate partitions every benchmark's samples into two snapshots,
// even-indexed samples to a and odd-indexed to b, preserving metadata and
// goldens. This is the interleaved A/A construction: samples taken
// adjacently in one `go test -count N` run share slow drift (thermal
// state, background load), so a drift that would cleanly separate two
// back-to-back runs lands evenly on both sides and cannot fake a
// significant delta. The CI gate self-test is built on it.
func (s *Snapshot) SplitAlternate() (a, b Snapshot) {
	a, b = *s, *s
	a.Benchmarks, b.Benchmarks = nil, nil
	for _, bench := range s.Benchmarks {
		for i, smp := range bench.Samples {
			if i%2 == 0 {
				a.Add(bench.Name, bench.Pkg, bench.Procs, smp)
			} else {
				b.Add(bench.Name, bench.Pkg, bench.Procs, smp)
			}
		}
	}
	return a, b
}

// Verdict classifies one benchmark's old→new change.
type Verdict string

const (
	// VerdictOK: no statistically significant change above the threshold.
	VerdictOK Verdict = "ok"
	// VerdictRegression: significantly slower, or allocs/op grew.
	VerdictRegression Verdict = "regression"
	// VerdictImprovement: significantly faster.
	VerdictImprovement Verdict = "improvement"
	// VerdictOnlyOld / VerdictOnlyNew: present on one side only.
	VerdictOnlyOld Verdict = "only-old"
	VerdictOnlyNew Verdict = "only-new"
)

// Delta is the comparison verdict for one benchmark.
type Delta struct {
	Name string `json:"name"`
	// Comparison holds the sample summaries, percent delta ± CI, and the
	// Mann-Whitney p-value. Zero-valued for one-sided benchmarks.
	stats.Comparison
	// OldAllocs/NewAllocs are the max allocs/op per side (-1 when the
	// side has no allocation data).
	OldAllocs int64 `json:"old_allocs_op"`
	NewAllocs int64 `json:"new_allocs_op"`
	// AllocRegression reports NewAllocs > OldAllocs. Allocation counts
	// are deterministic, so any growth flags without a significance test.
	AllocRegression bool    `json:"alloc_regression"`
	Verdict         Verdict `json:"verdict"`
}

// DiffOptions configures Diff.
type DiffOptions struct {
	// Stats carries alpha and the percent noise threshold.
	Stats stats.Options
	// Allocs enables the deterministic allocs/op gate: any increase in
	// max allocs/op is a regression.
	Allocs bool
	// IgnoreShape permits comparing snapshots measured on different CPU
	// shapes (GOMAXPROCS/NumCPU). Off by default: cross-shape timing
	// deltas measure the hardware, not the code.
	IgnoreShape bool
}

// ErrShapeMismatch is returned by Diff when the two snapshots were measured
// on different CPU shapes and DiffOptions.IgnoreShape is off.
var ErrShapeMismatch = errors.New("benchfmt: snapshots measured on different CPU shapes")

// Report is the full statistical comparison of two snapshots.
type Report struct {
	OldDate string  `json:"old_date"`
	NewDate string  `json:"new_date"`
	Deltas  []Delta `json:"deltas"`
}

// Regressions returns the deltas whose verdict is a regression.
func (r Report) Regressions() []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if d.Verdict == VerdictRegression {
			out = append(out, d)
		}
	}
	return out
}

// Diff compares two snapshots benchmark by benchmark. Output is sorted by
// benchmark name; benchmarks present on only one side are reported with
// VerdictOnlyOld/VerdictOnlyNew and never fail the gate.
func Diff(old, new Snapshot, opts DiffOptions) (Report, error) {
	rep := Report{OldDate: old.Date, NewDate: new.Date}
	if !opts.IgnoreShape {
		if os, ns := old.Shape(), new.Shape(); os != "" && ns != "" && os != ns {
			return rep, fmt.Errorf("%w: old %s vs new %s (pass -ignore-shape to compare anyway)",
				ErrShapeMismatch, os, ns)
		}
	}
	names := map[string]bool{}
	for _, b := range old.Benchmarks {
		names[b.Name] = true
	}
	for _, b := range new.Benchmarks {
		names[b.Name] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	for _, name := range sorted {
		ob, inOld := old.Lookup(name)
		nb, inNew := new.Lookup(name)
		d := Delta{Name: name, OldAllocs: -1, NewAllocs: -1}
		switch {
		case !inOld:
			d.Verdict = VerdictOnlyNew
		case !inNew:
			d.Verdict = VerdictOnlyOld
		default:
			cmp, err := stats.Compare(ob.NsOps(), nb.NsOps(), opts.Stats)
			if err != nil {
				return rep, fmt.Errorf("benchfmt: %s: %w", name, err)
			}
			d.Comparison = cmp
			if v, ok := ob.MaxAllocsOp(); ok {
				d.OldAllocs = v
			}
			if v, ok := nb.MaxAllocsOp(); ok {
				d.NewAllocs = v
			}
			if opts.Allocs && d.OldAllocs >= 0 && d.NewAllocs > d.OldAllocs {
				d.AllocRegression = true
			}
			switch {
			case d.AllocRegression || (cmp.Significant && cmp.Delta > 0):
				d.Verdict = VerdictRegression
			case cmp.Significant && cmp.Delta < 0:
				d.Verdict = VerdictImprovement
			default:
				d.Verdict = VerdictOK
			}
		}
		rep.Deltas = append(rep.Deltas, d)
	}
	return rep, nil
}
