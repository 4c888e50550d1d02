// Package rtrbench is the public API of the RTRBench-Go suite: sixteen
// real-time robotics kernels spanning the perception → planning → control
// pipeline, each runnable with a typical, realistic default configuration
// or a reduced test-sized one, and each reporting the phase-level execution
// breakdown the original paper's characterization is built on.
//
// Quick use:
//
//	res, err := rtrbench.Run("pfl", rtrbench.Options{Size: rtrbench.SizeSmall, Seed: 1})
//	fmt.Println(res.Dominant(), res.Fraction("raycast"))
//
// Kernels() lists the registry; each entry carries the pipeline stage and
// the bottlenecks the paper's Table I attributes to the kernel, so callers
// can verify the reproduction (“does the measured dominant phase match the
// published one?”) programmatically.
package rtrbench

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/profile"
)

// Stage is a robot software pipeline stage (paper Fig. 1).
type Stage string

// The three pipeline stages.
const (
	Perception Stage = "Perception"
	Planning   Stage = "Planning"
	Control    Stage = "Control"
)

// Size selects a configuration scale.
type Size int

const (
	// SizeSmall is a reduced configuration for unit tests and smoke runs
	// (sub-second per kernel).
	SizeSmall Size = iota
	// SizeDefault is the paper-style "typical, realistic configuration"
	// on a representative inputset.
	SizeDefault
)

// Options control a kernel run.
type Options struct {
	Size Size
	// Seed makes stochastic kernels reproducible. Zero means seed 1.
	Seed int64
	// Variant selects a kernel sub-configuration where one exists (e.g.
	// "mapf"/"mapc" for the arm planners, a region index for pfl). Empty
	// selects the default.
	Variant string
	// Deadline arms a per-step real-time deadline: every kernel step
	// (iteration, sample, or planning episode — see the kernel docs) is
	// timed, and Result.Steps reports the latency distribution and how
	// many steps overran. Zero means no deadline.
	Deadline time.Duration
	// StepLatency records the per-step latency distribution without a
	// deadline. Implied by a non-zero Deadline.
	StepLatency bool
	// Fault, when non-nil, enables deterministic chaos injection: sensor
	// dropout, NaN/Inf corruption, noise spikes, step stalls, and injected
	// panics on a schedule derived from (Fault.Seed, kernel, run seed).
	// Injected or genuine panics surface as *KernelError; the faults that
	// fired are listed in Result.Faults.
	Fault *FaultOptions
	// BestEffort asks the anytime/sampling kernels (pp2d's ARA* variant,
	// rrtstar, rrtpp, cem, bo) to degrade gracefully on cancellation or
	// deadline: return the best result found so far, flagged
	// Result.Degraded, instead of failing with ctx.Err(). Kernels without a
	// partial result to offer ignore it.
	BestEffort bool
	// Workers bounds the goroutines a kernel's data-parallel loop may use:
	// pfl's measurement update and prm's roadmap connection. The other
	// kernels ignore it. 0 and 1 run the loop inline. Workers never changes
	// a result: every kernel runs one algorithm, and its digest at any
	// Workers equals the checked-in golden (`rtrbench verify -metamorphic`
	// checks Workers=8 against Workers=0). See DESIGN.md "Intra-kernel
	// parallelism".
	Workers int
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// Phase is one instrumented region of a kernel's region of interest.
type Phase struct {
	Name     string
	Duration time.Duration
	Calls    int64
	// Fraction is the share of ROI time spent exclusively in this phase.
	Fraction float64
}

// Result is the outcome of one kernel execution.
type Result struct {
	Kernel string
	Stage  Stage
	// ROI is the total region-of-interest wall time.
	ROI time.Duration
	// Phases are sorted by descending duration.
	Phases []Phase
	// Counters are kernel operation counts (ray casts, collision checks,
	// L2 norms, string bytes, ...).
	Counters map[string]int64
	// Metrics are kernel-specific scalar outputs (path cost, estimation
	// error, best reward, ...).
	Metrics map[string]float64
	// Series are kernel-specific numeric series (reward curves, velocity
	// profiles) used to regenerate the paper's figures.
	Series map[string][]float64
	// Steps is the per-step latency distribution; nil unless the run had
	// Options.Deadline or Options.StepLatency set.
	Steps *StepStats
	// Inconsistent reports that the profile snapshot was structurally
	// unsound (phases or ROI left open) — a harness bug, not a kernel
	// property.
	Inconsistent bool
	// Degraded reports that the kernel returned a best-effort partial
	// result (see Options.BestEffort) instead of completing its workload.
	// A degraded result is a success with reduced quality, not a failure.
	Degraded bool
	// Faults lists the injected faults that fired during the run (see
	// Options.Fault); nil when chaos injection was off or nothing fired.
	Faults []FaultEvent
}

// StepStats is the per-step latency distribution of one kernel run, the
// real-time quantity (latency quantiles + deadline misses) that a phase
// table cannot express.
type StepStats struct {
	Count int64
	Min   time.Duration
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
	// Deadline echoes Options.Deadline; zero when only StepLatency was set.
	Deadline time.Duration
	// Misses counts steps whose latency exceeded Deadline.
	Misses int64
}

// Dominant returns the name of the phase with the largest share of ROI
// time, or "" when no phases were recorded.
func (r Result) Dominant() string {
	if len(r.Phases) == 0 {
		return ""
	}
	return r.Phases[0].Name
}

// Fraction returns the ROI share of the named phase (0 when absent).
func (r Result) Fraction(name string) float64 {
	for _, p := range r.Phases {
		if p.Name == name {
			return p.Fraction
		}
	}
	return 0
}

// Metric returns a named metric (0 when absent).
func (r Result) Metric(name string) float64 { return r.Metrics[name] }

// Info describes one registered kernel.
type Info struct {
	// Name is the kernel's short name (e.g. "pfl", "rrtstar").
	Name string
	// Index is the kernel's number in the paper's Table I (1-16).
	Index int
	Stage Stage
	// Description is a one-line summary.
	Description string
	// PaperBottlenecks lists the bottleneck(s) Table I attributes to the
	// kernel.
	PaperBottlenecks []string
	// ExpectDominant lists the harness phase names that would confirm the
	// paper's characterization when one of them is the measured dominant
	// phase.
	ExpectDominant []string

	// runWith executes the kernel against a caller-owned profile (the Suite
	// engine hands each trial its own shard of a profile.Sharded).
	runWith func(context.Context, Options, *profile.Profile) (Result, error)
	// runConfig executes the kernel on a caller-built config (see RunConfig).
	runConfig func(context.Context, any, *profile.Profile) (Result, error)
	// validate configures the kernel from the options and runs its config
	// validation without executing it (see the package-level Validate).
	validate func(Options) error
	// digest reduces a finished Result to the kernel's deterministic
	// golden-digest fields (see digest.go and Verify).
	digest digestFn
}

// The registry is map-backed: name lookups are O(1), and byIndex enforces
// Table I index uniqueness at registration time.
var (
	registry = map[string]Info{}
	byIndex  = map[int]string{}
)

func register(info Info) {
	if _, dup := registry[info.Name]; dup {
		panic(fmt.Sprintf("rtrbench: duplicate kernel name %q", info.Name))
	}
	if prev, dup := byIndex[info.Index]; dup {
		panic(fmt.Sprintf("rtrbench: duplicate kernel index %d (%s vs %s)", info.Index, prev, info.Name))
	}
	registry[info.Name] = info
	byIndex[info.Index] = info.Name
}

// Kernels returns the registry in Table I order.
func Kernels() []Info {
	out := make([]Info, 0, len(registry))
	for _, k := range registry {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// Lookup finds a kernel by name.
func Lookup(name string) (Info, bool) {
	k, ok := registry[name]
	return k, ok
}

// Run executes the named kernel with the given options.
func Run(name string, opts Options) (Result, error) {
	return RunContext(context.Background(), name, opts)
}

// Validate configures the named kernel from opts and runs its config
// validation (dimension, bound, and finiteness checks) without executing
// it. It reports the same field-level errors a Run would fail fast with.
func Validate(name string, opts Options) error {
	k, ok := Lookup(name)
	if !ok {
		return fmt.Errorf("rtrbench: unknown kernel %q", name)
	}
	return k.validate(opts)
}

// RunContext executes the named kernel under ctx. Cancellation (or a
// deadline on ctx) aborts the kernel within one step/iteration; the
// returned error is then ctx.Err().
func RunContext(ctx context.Context, name string, opts Options) (Result, error) {
	k, ok := Lookup(name)
	if !ok {
		return Result{}, fmt.Errorf("rtrbench: unknown kernel %q", name)
	}
	return k.runWith(ctx, opts, newProfile(opts))
}

// RunConfig executes the named kernel on cfg, a config of the kernel's own
// type (a pfl.Config for "pfl", an rrt.Config for the RRT family), against
// the caller's profile. The run gets what Run gives a configured kernel:
// config validation, panic recovery into a *KernelError, and the same
// Result translation, so its metric names are the registry's. It is how
// `rtrbench <kernel>` runs a config built from command-line flags.
func RunConfig(ctx context.Context, name string, cfg any, p *profile.Profile) (Result, error) {
	k, ok := Lookup(name)
	if !ok {
		return Result{}, fmt.Errorf("rtrbench: unknown kernel %q", name)
	}
	return k.runConfig(ctx, cfg, p)
}

// RunAll executes every kernel sequentially and returns the results in
// Table I order. The first error aborts the sweep. For parallel execution,
// repeated trials, timeouts, or error collection, use Suite.
func RunAll(opts Options) ([]Result, error) {
	var out []Result
	for _, k := range Kernels() {
		r, err := k.runWith(context.Background(), opts, newProfile(opts))
		if err != nil {
			return out, fmt.Errorf("rtrbench: kernel %s: %w", k.Name, err)
		}
		out = append(out, r)
	}
	return out, nil
}
