package profile

import (
	"strings"
	"testing"
	"time"
)

func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

func TestPhaseAccumulation(t *testing.T) {
	p := New()
	p.BeginROI()
	p.Span("a", func() { spin(2 * time.Millisecond) })
	p.Span("a", func() { spin(2 * time.Millisecond) })
	p.Span("b", func() { spin(1 * time.Millisecond) })
	p.EndROI()

	r := p.Snapshot()
	if r.ROI < 4*time.Millisecond {
		t.Fatalf("ROI = %v", r.ROI)
	}
	a, ok := r.Phase("a")
	if !ok || a.Calls != 2 || a.Total < 3*time.Millisecond {
		t.Fatalf("phase a = %+v ok=%v", a, ok)
	}
	if r.Dominant() != "a" {
		t.Fatalf("dominant = %q", r.Dominant())
	}
	if f := r.Fraction("a"); f < 0.4 || f > 1 {
		t.Fatalf("fraction a = %v", f)
	}
	if r.Fraction("nonexistent") != 0 {
		t.Fatal("missing phase has non-zero fraction")
	}
}

func TestNestedPhasesExclusive(t *testing.T) {
	p := New()
	p.BeginROI()
	p.Begin("outer")
	spin(1 * time.Millisecond)
	p.Begin("inner")
	spin(4 * time.Millisecond)
	p.End()
	spin(1 * time.Millisecond)
	p.End()
	p.EndROI()

	r := p.Snapshot()
	inner, _ := r.Phase("inner")
	outer, _ := r.Phase("outer")
	// Each phase spun for at least its own exclusive time (outer 2ms,
	// inner 4ms); busy-spin wall times on a loaded host only grow.
	if outer.Total < 2*time.Millisecond || inner.Total < 4*time.Millisecond {
		t.Fatalf("outer = %v, inner = %v", outer.Total, inner.Total)
	}
	// The outer phase must exclude the inner's 4ms: inclusive attribution
	// (outer 6ms, inner 4ms of a 6ms ROI) overruns the ROI.
	if sum := outer.Total + inner.Total; sum > r.ROI+time.Millisecond {
		t.Fatalf("outer %v + inner %v > ROI %v — no exclusive attribution", outer.Total, inner.Total, r.ROI)
	}
}

func TestFractionsSumBelowOne(t *testing.T) {
	p := New()
	p.BeginROI()
	p.Span("x", func() { spin(time.Millisecond) })
	p.Span("y", func() { spin(time.Millisecond) })
	spin(time.Millisecond) // unattributed ROI time
	p.EndROI()
	r := p.Snapshot()
	sum := r.Fraction("x") + r.Fraction("y")
	if sum > 1.0001 {
		t.Fatalf("fractions sum to %v > 1", sum)
	}
}

func TestCounters(t *testing.T) {
	p := New()
	p.Count("cells", 10)
	p.Count("cells", 5)
	r := p.Snapshot()
	if r.Counters["cells"] != 15 {
		t.Fatalf("counter = %d", r.Counters["cells"])
	}
}

func TestDisabledIsNoop(t *testing.T) {
	p := Disabled()
	p.BeginROI()
	p.Begin("x")
	p.End()
	p.Count("c", 1)
	p.EndROI()
	r := p.Snapshot()
	if r.ROI != 0 || len(r.Phases) != 0 || len(r.Counters) != 0 {
		t.Fatalf("disabled profile recorded: %+v", r)
	}
	if p.Enabled() {
		t.Fatal("Disabled().Enabled() = true")
	}
}

func TestNilProfileSafe(t *testing.T) {
	var p *Profile
	p.BeginROI()
	p.Begin("x")
	p.End()
	p.Count("c", 1)
	p.EndROI()
	p.Span("y", func() {})
	if p.Enabled() {
		t.Fatal("nil profile enabled")
	}
}

func TestUnbalancedEndIgnored(t *testing.T) {
	p := New()
	p.End() // no matching Begin
	r := p.Snapshot()
	if len(r.Phases) != 0 {
		t.Fatal("unbalanced End created a phase")
	}
}

func TestMerge(t *testing.T) {
	a := New()
	a.BeginROI()
	a.Span("x", func() { spin(time.Millisecond) })
	a.EndROI()
	a.Count("n", 1)

	b := New()
	b.BeginROI()
	b.Span("x", func() { spin(time.Millisecond) })
	b.Span("y", func() { spin(time.Millisecond) })
	b.EndROI()
	b.Count("n", 2)

	a.Merge(b)
	r := a.Snapshot()
	x, _ := r.Phase("x")
	if x.Calls != 2 {
		t.Fatalf("merged x calls = %d", x.Calls)
	}
	if _, ok := r.Phase("y"); !ok {
		t.Fatal("merged phase y missing")
	}
	if r.Counters["n"] != 3 {
		t.Fatalf("merged counter = %d", r.Counters["n"])
	}
	if r.ROI < 2*time.Millisecond {
		t.Fatalf("merged ROI = %v", r.ROI)
	}
}

func TestStringRendering(t *testing.T) {
	p := New()
	p.BeginROI()
	p.Span("raycast", func() { spin(time.Millisecond) })
	p.EndROI()
	p.Count("cells", 42)
	s := p.Snapshot().String()
	if !strings.Contains(s, "raycast") || !strings.Contains(s, "cells") {
		t.Fatalf("render missing fields:\n%s", s)
	}
}

func TestSnapshotSortedByDuration(t *testing.T) {
	p := New()
	p.BeginROI()
	p.Span("short", func() { spin(time.Millisecond) })
	p.Span("long", func() { spin(5 * time.Millisecond) })
	p.EndROI()
	r := p.Snapshot()
	if r.Phases[0].Name != "long" {
		t.Fatalf("phases not sorted: %v first", r.Phases[0].Name)
	}
}

func TestStepHook(t *testing.T) {
	p := New()
	var fired int
	p.SetStepHook(func() { fired++ })
	// The hook must fire even without step-latency tracking enabled.
	p.StepDone()
	p.StepDone()
	if fired != 2 {
		t.Fatalf("hook fired %d times, want 2", fired)
	}
	p.SetStepHook(nil)
	p.StepDone()
	if fired != 2 {
		t.Fatalf("removed hook still fired (%d calls)", fired)
	}

	d := Disabled()
	d.SetStepHook(func() { t.Fatal("hook installed on disabled profile") })
	d.StepDone()
}
