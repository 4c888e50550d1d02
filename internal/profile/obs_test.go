package profile

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestThreeLevelNestedExclusive(t *testing.T) {
	p := New()
	p.BeginROI()
	p.Begin("a")
	spin(1 * time.Millisecond)
	p.Begin("b")
	spin(1 * time.Millisecond)
	p.Begin("c")
	spin(4 * time.Millisecond)
	p.End()
	spin(1 * time.Millisecond)
	p.End()
	spin(1 * time.Millisecond)
	p.End()
	p.EndROI()

	r := p.Snapshot()
	a, _ := r.Phase("a")
	b, _ := r.Phase("b")
	c, _ := r.Phase("c")
	// Each phase spun for at least its own exclusive time: c 4ms, a and b
	// 2ms each. Wall times of busy-spins on a loaded host only grow, so
	// these are lower bounds, never comparisons between phases.
	for _, ph := range []struct {
		name  string
		total time.Duration
		spun  time.Duration
	}{{"a", a.Total, 2 * time.Millisecond}, {"b", b.Total, 2 * time.Millisecond}, {"c", c.Total, 4 * time.Millisecond}} {
		if ph.total < ph.spun {
			t.Fatalf("%s = %v, spun %v", ph.name, ph.total, ph.spun)
		}
	}
	// Exclusive totals must not exceed the ROI. Inclusive attribution
	// through the full depth (a 8ms, b 6ms, c 4ms of an 8ms ROI) fails here.
	if sum := a.Total + b.Total + c.Total; sum > r.ROI+time.Millisecond {
		t.Fatalf("phases sum %v > ROI %v", sum, r.ROI)
	}
	if r.Inconsistent {
		t.Fatal("balanced profile flagged inconsistent")
	}
}

func TestMergeAssociative(t *testing.T) {
	// Profiles are constructed deterministically (no wall clock) so the
	// associativity check can demand exact equality.
	build := func(n int64) func() *Profile {
		return func() *Profile {
			p := New()
			p.EnableSteps()
			p.roiTotal = time.Duration(n) * time.Millisecond
			p.phases["x"] = &phase{total: time.Duration(n) * time.Millisecond, calls: 1}
			p.steps.Record(time.Duration(n) * time.Millisecond)
			p.counters["ops"] = n
			return p
		}
	}
	mkA, mkB, mkC := build(1), build(2), build(3)

	// (a ⊕ b) ⊕ c
	a1, b1, c1 := mkA(), mkB(), mkC()
	a1.Merge(b1)
	a1.Merge(c1)
	r1 := a1.Snapshot()

	// a ⊕ (b ⊕ c)
	a2, b2, c2 := mkA(), mkB(), mkC()
	b2.Merge(c2)
	a2.Merge(b2)
	r2 := a2.Snapshot()

	if r1.Counters["ops"] != 6 || r2.Counters["ops"] != 6 {
		t.Fatalf("counters: %d vs %d", r1.Counters["ops"], r2.Counters["ops"])
	}
	x1, _ := r1.Phase("x")
	x2, _ := r2.Phase("x")
	if x1.Calls != 3 || x2.Calls != 3 || x1.Total != x2.Total {
		t.Fatalf("phase x differs: %+v vs %+v", x1, x2)
	}
	if r1.ROI != r2.ROI || r1.ROI != 6*time.Millisecond {
		t.Fatalf("ROI differs: %v vs %v", r1.ROI, r2.ROI)
	}
	if r1.Steps != r2.Steps {
		t.Fatalf("steps differ: %+v vs %+v", r1.Steps, r2.Steps)
	}
	if r1.Steps.Count != 3 {
		t.Fatalf("steps = %+v", r1.Steps)
	}
}

func TestMergeIntoDisabledIsDocumentedNoop(t *testing.T) {
	d := Disabled()
	src := New()
	src.BeginROI()
	src.Span("x", func() { spin(time.Millisecond) })
	src.EndROI()
	d.Merge(src)
	if r := d.Snapshot(); r.ROI != 0 || len(r.Phases) != 0 {
		t.Fatalf("disabled receiver recorded merge: %+v", r)
	}
	var nilP *Profile
	nilP.Merge(src) // must not panic
}

func TestMergeOpenROI(t *testing.T) {
	src := New()
	src.BeginROI()
	spin(2 * time.Millisecond)
	// src deliberately left with an open ROI.

	dst := New()
	dst.Merge(src)
	r := dst.Snapshot()
	if !r.Inconsistent {
		t.Fatal("open-ROI merge not flagged inconsistent")
	}
	if r.ROI < 2*time.Millisecond {
		t.Fatalf("in-flight ROI time dropped: %v", r.ROI)
	}
	// src must be untouched and still usable.
	src.EndROI()
	if sr := src.Snapshot(); sr.Inconsistent || sr.ROI < 2*time.Millisecond {
		t.Fatalf("merge mutated other: %+v", sr)
	}
}

func TestMergeOpenPhasePropagatesInconsistency(t *testing.T) {
	src := New()
	src.BeginROI()
	src.Begin("stuck")

	dst := New()
	dst.Merge(src)
	if !dst.Snapshot().Inconsistent {
		t.Fatal("open-phase merge not flagged")
	}
	// Inconsistency must survive further merges.
	final := New()
	final.Merge(dst)
	if !final.Snapshot().Inconsistent {
		t.Fatal("inconsistency dropped by second merge")
	}
}

func TestSnapshotInconsistencyFlag(t *testing.T) {
	p := New()
	p.BeginROI()
	p.Begin("outer")
	p.Begin("inner")
	r := p.Snapshot()
	if !r.Inconsistent {
		t.Fatal("open ROI + phases not flagged")
	}
	if len(r.OpenPhases) != 2 || r.OpenPhases[0] != "outer" || r.OpenPhases[1] != "inner" {
		t.Fatalf("OpenPhases = %v", r.OpenPhases)
	}
	if !strings.Contains(r.String(), "inconsistent") {
		t.Fatalf("String() hides inconsistency:\n%s", r.String())
	}
	// Closing everything clears the flag on the next snapshot.
	p.End()
	p.End()
	p.EndROI()
	if r := p.Snapshot(); r.Inconsistent {
		t.Fatalf("balanced profile still flagged: %v", r.OpenPhases)
	}
}

func TestStepLatencyAndDeadline(t *testing.T) {
	// The deadline sits 100x above the fast steps' spin: a busy-spin's
	// wall time grows when the host deschedules the test, and only a
	// descheduling longer than the deadline may turn a fast step into a
	// miss.
	p := New()
	p.SetDeadline(10 * time.Millisecond)
	p.BeginROI()
	for i := 0; i < 5; i++ {
		spin(100 * time.Microsecond)
		p.StepDone()
	}
	spin(20 * time.Millisecond) // one slow step
	p.StepDone()
	p.EndROI()

	r := p.Snapshot()
	if r.Steps.Count != 6 {
		t.Fatalf("steps = %d", r.Steps.Count)
	}
	if r.Steps.Deadline != 10*time.Millisecond {
		t.Fatalf("deadline = %v", r.Steps.Deadline)
	}
	if r.Steps.Misses != 1 {
		t.Fatalf("misses = %d", r.Steps.Misses)
	}
	if r.Steps.Max < 20*time.Millisecond {
		t.Fatalf("max = %v", r.Steps.Max)
	}
	if r.Steps.P50 > r.Steps.P99 || r.Steps.P99 > r.Steps.Max {
		t.Fatalf("quantiles out of order: %+v", r.Steps)
	}
	if !strings.Contains(r.String(), "misses=1") {
		t.Fatalf("String() missing deadline line:\n%s", r.String())
	}
}

func TestStepDoneWithoutEnableIsNoop(t *testing.T) {
	p := New()
	p.BeginROI()
	p.StepDone()
	p.EndROI()
	if r := p.Snapshot(); r.Steps.Count != 0 {
		t.Fatalf("untracked steps recorded: %+v", r.Steps)
	}
}

func TestCEMStyleRepeatedROIKeepsStepCadence(t *testing.T) {
	// cem opens and closes the ROI several times per iteration; the step
	// mark must persist across EndROI/BeginROI so each StepDone measures a
	// full iteration, not just the last ROI fragment.
	p := New()
	p.EnableSteps()
	for i := 0; i < 3; i++ {
		p.BeginROI()
		spin(200 * time.Microsecond)
		p.EndROI()
		spin(100 * time.Microsecond) // out-of-ROI work
		p.BeginROI()
		spin(200 * time.Microsecond)
		p.EndROI()
		p.StepDone()
	}
	r := p.Snapshot()
	if r.Steps.Count != 3 {
		t.Fatalf("steps = %d", r.Steps.Count)
	}
	if r.Steps.Min < 400*time.Microsecond {
		t.Fatalf("step fragmented: min = %v", r.Steps.Min)
	}
}

func TestReset(t *testing.T) {
	p := New()
	p.SetDeadline(time.Microsecond)
	p.EnableTrace()
	p.BeginROI()
	p.Span("x", func() { spin(time.Millisecond) })
	p.StepDone()
	p.EndROI()
	p.Count("n", 7)
	p.Begin("left-open")

	p.Reset()
	r := p.Snapshot()
	if r.ROI != 0 || len(r.Phases) != 0 || len(r.Counters) != 0 {
		t.Fatalf("reset left data: %+v", r)
	}
	if r.Steps.Count != 0 || r.Steps.Misses != 0 || len(r.Trace) != 0 {
		t.Fatalf("reset left step/trace data: %+v", r)
	}
	if r.Inconsistent {
		t.Fatal("reset left inconsistency flag")
	}
	// Configuration survives: deadline still armed, tracing still on.
	p.BeginROI()
	spin(100 * time.Microsecond)
	p.StepDone()
	p.EndROI()
	r = p.Snapshot()
	if r.Steps.Count != 1 || r.Steps.Misses != 1 || r.Steps.Deadline != time.Microsecond {
		t.Fatalf("config lost after reset: %+v", r.Steps)
	}
	if len(r.Trace) == 0 {
		t.Fatal("tracing lost after reset")
	}
}

func TestTraceEvents(t *testing.T) {
	p := New()
	p.EnableTrace()
	p.EnableSteps()
	p.BeginROI()
	p.Span("raycast", func() { spin(time.Millisecond) })
	p.StepDone()
	p.EndROI()

	r := p.Snapshot()
	// Expect: raycast phase, step, ROI — all complete events.
	if len(r.Trace) != 3 {
		t.Fatalf("trace events = %d: %+v", len(r.Trace), r.Trace)
	}
	names := map[string]bool{}
	for i, ev := range r.Trace {
		names[ev.Name] = true
		if ev.Ph != "X" || ev.Pid != obs.TracePid || ev.Dur <= 0 {
			t.Fatalf("bad event: %+v", ev)
		}
		if ev.Ts < 0 {
			t.Fatalf("negative rebased ts: %+v", ev)
		}
		if i > 0 && ev.Ts < r.Trace[i-1].Ts {
			t.Fatalf("events unsorted at %d", i)
		}
	}
	for _, want := range []string{"ROI", "raycast", "step"} {
		if !names[want] {
			t.Fatalf("missing %q in trace: %v", want, names)
		}
	}
	if r.Trace[0].Ts != 0 {
		t.Fatalf("earliest event not rebased to 0: %v", r.Trace[0].Ts)
	}
}

func TestTraceMarksDeadlineMiss(t *testing.T) {
	p := New()
	p.SetDeadline(time.Microsecond)
	p.EnableTrace()
	p.BeginROI()
	spin(time.Millisecond)
	p.StepDone()
	p.EndROI()
	var found bool
	for _, ev := range p.Snapshot().Trace {
		if ev.Name == "step" && ev.Args["deadline_miss"] == true {
			found = true
		}
	}
	if !found {
		t.Fatal("missed step not marked in trace")
	}
}

func TestPublishLive(t *testing.T) {
	reg := &obs.Registry{}
	p := New()
	p.SetDeadline(time.Microsecond)
	p.PublishLive(reg)
	p.BeginROI()
	p.Count("cells", 10)
	spin(time.Millisecond)
	p.StepDone()
	p.EndROI()
	snap := reg.Snapshot()
	if snap["cells"] != 10 || snap["steps_total"] != 1 || snap["deadline_misses_total"] != 1 {
		t.Fatalf("live counters = %v", snap)
	}
}

func TestDisabledZeroAlloc(t *testing.T) {
	p := Disabled()
	fn := func() {}
	allocs := testing.AllocsPerRun(200, func() {
		p.BeginROI()
		p.Begin("x")
		p.Count("c", 1)
		p.StepDone()
		p.End()
		p.Span("y", fn)
		p.EndROI()
	})
	if allocs != 0 {
		t.Fatalf("disabled profile allocates: %v allocs/op", allocs)
	}
}
