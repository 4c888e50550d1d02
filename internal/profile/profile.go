// Package profile is the suite's region-of-interest (ROI) harness. It plays
// the role zsim hooks play in the original RTRBench: kernels mark the start
// and end of their ROI and of named phases inside it (ray-casting, collision
// detection, nearest-neighbor search, matrix operations, sorting, ...), and
// the harness accumulates wall time and operation counts per phase.
//
// The paper's evaluation numbers are fractions of ROI time spent in each
// bottleneck phase; Report.Fraction reproduces exactly that quantity. Like
// the zsim hooks ("no effect on correctness and virtually zero effect on
// performance", §VI), a disabled Profile turns every call into a cheap no-op
// so benchmarks can run without instrumentation overhead; bench_test.go
// asserts the disabled fast path stays allocation-free.
//
// On top of the phase breakdown the profile offers three observability
// extensions (all opt-in, all no-ops until enabled):
//
//   - Step latency: kernels call StepDone at the end of each iteration of
//     their main loop (a filter cycle, an ICP iteration, a sampling step, a
//     full planning episode for one-shot planners). SetDeadline arms a
//     real-time deadline; the snapshot reports the per-step latency
//     distribution (p50/p95/p99/max) and the deadline-miss count — the
//     quantity a real-time suite must report that a phase table cannot.
//   - Tracing: EnableTrace records begin/end events for every phase, ROI,
//     and step; Report.Trace exports them as Chrome trace_event JSON
//     (chrome://tracing, Perfetto).
//   - Live counters: PublishLive mirrors operation counters, step counts,
//     and deadline misses into an obs.Registry so the --httpdebug /metrics
//     endpoint can expose them while the kernel runs.
package profile

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Profile accumulates phase timings and counters for one kernel execution.
// A nil or disabled Profile is safe to use; all methods become no-ops.
// Profile is not safe for concurrent use by multiple goroutines; parallel
// kernels keep one Profile per worker and Merge them (see Sharded).
type Profile struct {
	disabled bool

	roiStart time.Time
	roiTotal time.Duration
	inROI    bool

	phases   map[string]*phase
	counters map[string]int64

	stack []frame // active nested phases

	// inconsistent records that merged-in state was structurally unsound
	// (an open ROI or open phases on the source profile).
	inconsistent bool

	// Step latency (nil steps = tracking off; see EnableSteps/SetDeadline).
	steps    *obs.Histogram
	deadline time.Duration
	misses   int64
	stepMark time.Time

	// Tracing (see EnableTrace).
	traced bool
	spans  []span

	// Live counter export (see PublishLive).
	live *obs.Registry

	// Step hook (see SetStepHook).
	stepHook func()
}

type phase struct {
	total time.Duration
	calls int64
}

type frame struct {
	name  string
	start time.Time
	// child time is subtracted from the parent so phase fractions are
	// exclusive: nested regions never double-count.
	child time.Duration
}

// span is one recorded trace interval (or instant, when dur < 0 is never
// used — misses are flagged separately).
type span struct {
	name  string
	start time.Time
	dur   time.Duration
	tid   int
	miss  bool // step exceeded the deadline
}

// New returns an enabled, empty profile.
func New() *Profile {
	return &Profile{
		phases:   make(map[string]*phase),
		counters: make(map[string]int64),
	}
}

// Disabled returns a profile whose methods are no-ops.
func Disabled() *Profile { return &Profile{disabled: true} }

// Enabled reports whether the profile records anything.
func (p *Profile) Enabled() bool { return p != nil && !p.disabled }

// EnableSteps turns on per-step latency recording without a deadline.
func (p *Profile) EnableSteps() {
	if !p.Enabled() || p.steps != nil {
		return
	}
	p.steps = obs.NewHistogram()
}

// SetDeadline arms a per-step real-time deadline and enables step latency
// recording. A non-positive d disables the deadline but keeps recording.
func (p *Profile) SetDeadline(d time.Duration) {
	if !p.Enabled() {
		return
	}
	p.EnableSteps()
	if d < 0 {
		d = 0
	}
	p.deadline = d
}

// EnableTrace turns on begin/end event recording for phases, the ROI, and
// steps. The snapshot exports them in Chrome trace_event form.
func (p *Profile) EnableTrace() {
	if !p.Enabled() {
		return
	}
	p.traced = true
}

// PublishLive mirrors counters, step totals, and deadline misses into reg
// as they happen, for live exposition on the debug server's /metrics
// endpoint. A nil reg turns mirroring off.
func (p *Profile) PublishLive(reg *obs.Registry) {
	if !p.Enabled() {
		return
	}
	p.live = reg
}

// SetStepHook installs fn to run at every StepDone of this enabled profile,
// before latency bookkeeping. Because all kernels call StepDone once per
// iteration of their main loop, the hook is a uniform per-step injection
// point — the chaos layer uses it to fire stalls and injected panics without
// per-kernel wiring. A nil fn removes the hook. No-op on disabled profiles,
// which is what shields warmup runs (they use Disabled()) from injection.
func (p *Profile) SetStepHook(fn func()) {
	if !p.Enabled() {
		return
	}
	p.stepHook = fn
}

// BeginROI marks the start of the kernel's region of interest. The first
// BeginROI also starts the first step interval when step tracking is on.
func (p *Profile) BeginROI() {
	if !p.Enabled() {
		return
	}
	p.inROI = true
	p.roiStart = time.Now()
	if p.steps != nil && p.stepMark.IsZero() {
		p.stepMark = p.roiStart
	}
}

// EndROI marks the end of the region of interest.
func (p *Profile) EndROI() {
	if !p.Enabled() || !p.inROI {
		return
	}
	elapsed := time.Since(p.roiStart)
	p.roiTotal += elapsed
	p.inROI = false
	if p.traced {
		p.spans = append(p.spans, span{name: "ROI", start: p.roiStart, dur: elapsed, tid: obs.TraceTidPhases})
	}
}

// Begin opens a named phase. Phases may nest; time spent in an inner phase
// is attributed to the inner phase only.
func (p *Profile) Begin(name string) {
	if !p.Enabled() {
		return
	}
	p.stack = append(p.stack, frame{name: name, start: time.Now()})
}

// End closes the innermost open phase.
func (p *Profile) End() {
	if !p.Enabled() || len(p.stack) == 0 {
		return
	}
	f := p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
	elapsed := time.Since(f.start)
	ph := p.phases[f.name]
	if ph == nil {
		ph = &phase{}
		p.phases[f.name] = ph
	}
	ph.total += elapsed - f.child
	ph.calls++
	if len(p.stack) > 0 {
		p.stack[len(p.stack)-1].child += elapsed
	}
	if p.traced {
		// The trace span keeps the inclusive duration: the viewer shows
		// nesting visually, while the phase table stays exclusive.
		p.spans = append(p.spans, span{name: f.name, start: f.start, dur: elapsed, tid: obs.TraceTidPhases})
	}
}

// Span runs fn inside a named phase. It is the preferred form for short
// regions because it cannot be left unbalanced.
func (p *Profile) Span(name string, fn func()) {
	p.Begin(name)
	fn()
	p.End()
}

// Count adds delta to a named operation counter (cells visited, distance
// evaluations, string bytes touched, ...).
func (p *Profile) Count(name string, delta int64) {
	if !p.Enabled() {
		return
	}
	p.counters[name] += delta
	if p.live != nil {
		p.live.Add(name, delta)
	}
}

// StepDone closes one step interval: it records the wall time since the
// previous StepDone (or since the first BeginROI for the first step) into
// the latency histogram and checks it against the armed deadline. It also
// fires the step hook, if one is installed. Without step tracking or a hook
// it is a no-op, so the hot path of uninstrumented runs pays a single branch.
func (p *Profile) StepDone() {
	if !p.Enabled() {
		return
	}
	if p.stepHook != nil {
		p.stepHook()
	}
	if p.steps == nil {
		return
	}
	now := time.Now()
	if p.stepMark.IsZero() {
		// No interval open yet (StepDone before any BeginROI): start one.
		p.stepMark = now
		return
	}
	d := now.Sub(p.stepMark)
	p.stepMark = now
	p.steps.Record(d)
	miss := p.deadline > 0 && d > p.deadline
	if miss {
		p.misses++
	}
	if p.traced {
		p.spans = append(p.spans, span{name: "step", start: now.Add(-d), dur: d, tid: obs.TraceTidSteps, miss: miss})
	}
	if p.live != nil {
		p.live.Add("steps_total", 1)
		if miss {
			p.live.Add("deadline_misses_total", 1)
		}
	}
}

// Reset clears all accumulated data — phases, counters, ROI time, step
// latencies, misses, trace events, and the inconsistency flag — while
// keeping configuration (deadline, step tracking, tracing, live registry).
// Harness loops reuse one Profile across repetitions without reallocating
// the maps. Open phases and an open ROI are discarded.
//
// When live export is on, Reset also withdraws everything this profile
// already pushed into the registry (operation counters, steps_total,
// deadline_misses_total). Without that, a reset-and-retried run — the suite
// engine resets a trial's shard after a failed attempt — would leave the
// discarded attempt's steps and misses in the live gauges forever, so
// /metrics would disagree with the final Snapshot.
func (p *Profile) Reset() {
	if !p.Enabled() {
		return
	}
	if p.live != nil {
		for name, v := range p.counters {
			if v != 0 {
				p.live.Add(name, -v)
			}
		}
		if p.steps != nil {
			if n := p.steps.Count(); n > 0 {
				p.live.Add("steps_total", -n)
			}
			if p.misses > 0 {
				p.live.Add("deadline_misses_total", -p.misses)
			}
		}
	}
	p.roiStart = time.Time{}
	p.roiTotal = 0
	p.inROI = false
	for k := range p.phases {
		delete(p.phases, k)
	}
	for k := range p.counters {
		delete(p.counters, k)
	}
	p.stack = p.stack[:0]
	p.inconsistent = false
	if p.steps != nil {
		p.steps.Reset()
	}
	p.misses = 0
	p.stepMark = time.Time{}
	p.spans = p.spans[:0]
}

// Merge folds other's phases, counters, ROI time, step latencies, deadline
// misses, and trace events into p.
//
// Merge on a nil or disabled receiver is a deliberate no-op: a disabled
// aggregate discards worker data instead of resurrecting instrumentation
// the caller turned off. Merging a nil or disabled other is likewise a
// no-op.
//
// If other has an open ROI or open phases at merge time (a worker that was
// not quiesced), Merge folds the in-flight ROI time accrued so far and
// marks the receiver's snapshots Inconsistent rather than silently dropping
// the in-flight work. other is never mutated.
func (p *Profile) Merge(other *Profile) {
	if !p.Enabled() || other == nil || other.disabled {
		return
	}
	p.roiTotal += other.roiTotal
	if other.inROI {
		// In-flight ROI time: count what has accrued, flag the snapshot.
		p.roiTotal += time.Since(other.roiStart)
		p.inconsistent = true
	}
	if len(other.stack) > 0 || other.inconsistent {
		p.inconsistent = true
	}
	for name, ph := range other.phases {
		dst := p.phases[name]
		if dst == nil {
			dst = &phase{}
			p.phases[name] = dst
		}
		dst.total += ph.total
		dst.calls += ph.calls
	}
	for name, v := range other.counters {
		p.counters[name] += v
	}
	if other.steps != nil {
		p.EnableSteps()
		p.steps.Merge(other.steps)
		p.misses += other.misses
		if p.deadline == 0 {
			p.deadline = other.deadline
		}
	}
	if len(other.spans) > 0 {
		p.spans = append(p.spans, other.spans...)
	}
}

// Report is an immutable snapshot of a profile.
type Report struct {
	ROI    time.Duration
	Phases []PhaseStat
	// Counters are operation counts (always non-nil).
	Counters map[string]int64
	// Steps is the per-step latency distribution and deadline accounting;
	// Steps.Count == 0 and Steps.Deadline == 0 mean step tracking was off.
	Steps obs.Summary
	// Inconsistent is set when the snapshot was taken with phases still
	// open or the ROI still running (in-flight time is NOT included in the
	// totals), or when Merge folded in a profile in that state. Tests treat
	// it as a harness bug.
	Inconsistent bool
	// OpenPhases lists the names on the phase stack at snapshot time,
	// innermost last (diagnostic detail for Inconsistent).
	OpenPhases []string
	// Trace holds the Chrome trace_event export when tracing was enabled,
	// with timestamps rebased so the earliest event starts at 0.
	Trace []obs.TraceEvent
}

// PhaseStat is the accumulated cost of one named phase.
type PhaseStat struct {
	Name  string
	Total time.Duration
	Calls int64
}

// Snapshot returns the current report. Open phases and an open ROI are not
// folded into the totals; instead the report's Inconsistent flag is raised
// and OpenPhases lists the offenders, so harness bugs surface instead of
// silently dropping in-flight time.
func (p *Profile) Snapshot() Report {
	r := Report{Counters: map[string]int64{}}
	if !p.Enabled() {
		return r
	}
	r.ROI = p.roiTotal
	for name, ph := range p.phases {
		r.Phases = append(r.Phases, PhaseStat{Name: name, Total: ph.total, Calls: ph.calls})
	}
	sort.Slice(r.Phases, func(i, j int) bool { return r.Phases[i].Total > r.Phases[j].Total })
	for k, v := range p.counters {
		r.Counters[k] = v
	}
	if p.inROI || len(p.stack) > 0 || p.inconsistent {
		r.Inconsistent = true
		for _, f := range p.stack {
			r.OpenPhases = append(r.OpenPhases, f.name)
		}
	}
	if p.steps != nil {
		r.Steps = p.steps.Summary()
		r.Steps.Deadline = p.deadline
		r.Steps.Misses = p.misses
	}
	if p.traced {
		r.Trace = p.traceEvents()
	}
	return r
}

// traceEvents converts recorded spans to trace_event form, rebased so the
// earliest span is t=0.
func (p *Profile) traceEvents() []obs.TraceEvent {
	if len(p.spans) == 0 {
		return []obs.TraceEvent{}
	}
	epoch := p.spans[0].start
	for _, s := range p.spans[1:] {
		if s.start.Before(epoch) {
			epoch = s.start
		}
	}
	events := make([]obs.TraceEvent, 0, len(p.spans))
	for _, s := range p.spans {
		ev := obs.TraceEvent{
			Name: s.name,
			Ph:   "X",
			Ts:   float64(s.start.Sub(epoch)) / float64(time.Microsecond),
			Dur:  float64(s.dur) / float64(time.Microsecond),
			Pid:  obs.TracePid,
			Tid:  s.tid,
		}
		if s.miss {
			ev.Args = map[string]interface{}{"deadline_miss": true}
		}
		events = append(events, ev)
	}
	// The viewer requires events sorted by timestamp.
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	return events
}

// Fraction returns the share of ROI time spent in the named phase, in
// [0, 1]. It returns 0 when the ROI is empty or the phase is unknown.
func (r Report) Fraction(name string) float64 {
	if r.ROI <= 0 {
		return 0
	}
	for _, ph := range r.Phases {
		if ph.Name == name {
			return float64(ph.Total) / float64(r.ROI)
		}
	}
	return 0
}

// Phase returns the stats for a named phase and whether it exists.
func (r Report) Phase(name string) (PhaseStat, bool) {
	for _, ph := range r.Phases {
		if ph.Name == name {
			return ph, true
		}
	}
	return PhaseStat{}, false
}

// Dominant returns the name of the phase with the largest share of ROI time,
// or "" if no phases were recorded.
func (r Report) Dominant() string {
	if len(r.Phases) == 0 {
		return ""
	}
	return r.Phases[0].Name
}

// String renders the report as a characterization table: phase, time,
// calls, and percentage of ROI, followed by the step-latency distribution
// when recorded.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ROI: %v\n", r.ROI)
	if r.Inconsistent {
		fmt.Fprintf(&b, "  WARNING: inconsistent snapshot (open phases: %v)\n", r.OpenPhases)
	}
	for _, ph := range r.Phases {
		pct := 0.0
		if r.ROI > 0 {
			pct = 100 * float64(ph.Total) / float64(r.ROI)
		}
		fmt.Fprintf(&b, "  %-24s %12v  calls=%-10d %5.1f%%\n", ph.Name, ph.Total, ph.Calls, pct)
	}
	if r.Steps.Count > 0 {
		fmt.Fprintf(&b, "  steps %d  p50=%v p95=%v p99=%v max=%v\n",
			r.Steps.Count, r.Steps.P50, r.Steps.P95, r.Steps.P99, r.Steps.Max)
		if r.Steps.Deadline > 0 {
			fmt.Fprintf(&b, "  deadline %v  misses=%d\n", r.Steps.Deadline, r.Steps.Misses)
		}
	}
	if len(r.Counters) > 0 {
		keys := make([]string, 0, len(r.Counters))
		for k := range r.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  #%-23s %d\n", k, r.Counters[k])
		}
	}
	return b.String()
}
