package rtrbench

import (
	"context"
	"fmt"

	"repro/internal/arm"
	"repro/internal/core/rrt"
	"repro/internal/core/sym"
	"repro/internal/fault"
	"repro/internal/profile"
)

// spec is the uniform adapter shape every kernel file provides: configure
// maps public Options onto the kernel's own config type (validating the
// variant), run executes the kernel against a caller-owned profile and
// translates its native result into the public Result. The two halves are
// separated so the Suite engine can reuse one configuration across warmup
// runs and trials while handing each execution its own profile shard.
//
// inject, when set, threads a chaos injector into the kernel's sensor layer
// (the kernels whose configs embed a sensor: pfl's laser, ekfslam's
// range-bearing sensor). All kernels additionally receive step-level faults
// (stalls, panics) through the profile's step hook, so inject stays nil for
// the rest.
type spec[C any] struct {
	configure func(Options) (C, error)
	run       func(context.Context, C, *profile.Profile) (Result, error)
	inject    func(*C, *fault.Injector)
	// digest names the correctness-bearing outputs of a finished run for
	// golden verification (see digest.go for the ownership rules). Every
	// kernel must provide one; registerSpec panics otherwise.
	digest digestFn
}

// validated is the duck-typed config validation contract: every kernel
// config with a Validate method gets it called on the configure path, so
// malformed options fail fast with field-level errors before the kernel
// runs.
type validated interface{ Validate() error }

// registerSpec wires a spec into the registry under info's identity. The
// wrapper it installs is the harness's robustness boundary: it validates
// the kernel config, arms chaos injection when requested, and converts any
// panic that escapes the kernel into a structured *KernelError instead of
// crashing the process. Options-driven runs and RunConfig both go through
// it.
func registerSpec[C any](info Info, s spec[C]) {
	name, stage := info.Name, info.Stage
	if s.digest == nil {
		panic(fmt.Sprintf("rtrbench: kernel %q registered without a digest hook", name))
	}
	info.digest = s.digest
	validate := func(cfg C) error {
		if v, ok := any(cfg).(validated); ok {
			return v.Validate()
		}
		return nil
	}
	// exec runs cfg; o contributes only its chaos settings.
	exec := func(ctx context.Context, cfg C, o Options, p *profile.Profile) (res Result, err error) {
		if err := validate(cfg); err != nil {
			return Result{Kernel: name, Stage: stage}, err
		}
		var inj *fault.Injector
		if o.Fault != nil {
			inj = fault.New(o.Fault.config(), name, o.seed())
			if inj != nil {
				if s.inject != nil {
					s.inject(&cfg, inj)
				}
				// Stalls and injected panics reach every kernel through the
				// uniform per-step hook; warmup runs use a disabled profile,
				// so SetStepHook no-ops and warmup stays injection-free.
				p.SetStepHook(inj.OnStep)
			}
		}
		defer func() {
			if rec := recover(); rec != nil {
				res = Result{Kernel: name, Stage: stage, Faults: faultEvents(inj)}
				err = newKernelError(name, rec)
			}
		}()
		res, err = s.run(ctx, cfg, p)
		res.Faults = faultEvents(inj)
		return res, err
	}
	info.runWith = func(ctx context.Context, o Options, p *profile.Profile) (Result, error) {
		cfg, err := s.configure(o)
		if err != nil {
			return Result{Kernel: name, Stage: stage}, err
		}
		return exec(ctx, cfg, o, p)
	}
	info.runConfig = func(ctx context.Context, cfg any, p *profile.Profile) (Result, error) {
		c, ok := cfg.(C)
		if !ok {
			return Result{Kernel: name, Stage: stage},
				fmt.Errorf("rtrbench: kernel %q takes a %T, got %T", name, c, cfg)
		}
		return exec(ctx, c, Options{}, p)
	}
	info.validate = func(o Options) error {
		cfg, err := s.configure(o)
		if err != nil {
			return err
		}
		return validate(cfg)
	}
	register(info)
}

// noVariant rejects any non-empty variant for kernels that define none.
func noVariant(kernel string, o Options) error {
	if o.Variant != "" {
		return fmt.Errorf("%s: unknown variant %q", kernel, o.Variant)
	}
	return nil
}

// newProfile builds a kernel profile configured from the run options
// (deadline and step-latency tracking).
func newProfile(o Options) *profile.Profile {
	p := profile.New()
	if o.Deadline > 0 {
		p.SetDeadline(o.Deadline)
	} else if o.StepLatency {
		p.EnableSteps()
	}
	return p
}

// newResult converts an internal profile report into the public Result.
func newResult(kernel string, stage Stage, rep profile.Report) Result {
	res := Result{
		Kernel:       kernel,
		Stage:        stage,
		ROI:          rep.ROI,
		Counters:     rep.Counters,
		Metrics:      map[string]float64{},
		Series:       map[string][]float64{},
		Inconsistent: rep.Inconsistent,
	}
	if rep.Steps.Count > 0 || rep.Steps.Deadline > 0 {
		res.Steps = &StepStats{
			Count:    rep.Steps.Count,
			Min:      rep.Steps.Min,
			Mean:     rep.Steps.Mean,
			P50:      rep.Steps.P50,
			P95:      rep.Steps.P95,
			P99:      rep.Steps.P99,
			Max:      rep.Steps.Max,
			Deadline: rep.Steps.Deadline,
			Misses:   rep.Steps.Misses,
		}
	}
	for _, ph := range rep.Phases {
		res.Phases = append(res.Phases, Phase{
			Name:     ph.Name,
			Duration: ph.Total,
			Calls:    ph.Calls,
			Fraction: rep.Fraction(ph.Name),
		})
	}
	return res
}

// armWorkspace maps the "mapf"/"mapc" variant strings used by the
// sampling-based planners to the paper's Fig. 9 workspaces. The default is
// Map-C (cluttered); unknown variants are an error.
func armWorkspace(kernel, variant string) (*arm.Workspace, error) {
	switch variant {
	case "mapf", "free", "f":
		return arm.MapF(), nil
	case "", "mapc", "cluttered", "c":
		return arm.MapC(), nil
	default:
		return nil, fmt.Errorf("%s: unknown variant %q", kernel, variant)
	}
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// rrtConfig and rrtResult are shared by the rrt/rrtstar/rrtpp adapters.
func rrtConfig(kernel string, o Options, variant string) (rrt.Config, error) {
	cfg := rrt.DefaultConfig()
	cfg.Seed = o.seed()
	cfg.BestEffort = o.BestEffort
	if o.Size == SizeSmall {
		cfg.MaxSamples = 10000
	}
	ws, err := armWorkspace(kernel, variant)
	if err != nil {
		return cfg, err
	}
	cfg.Workspace = ws
	return cfg, nil
}

func rrtResult(name string, p *profile.Profile, kr rrt.Result) Result {
	res := newResult(name, Planning, p.Snapshot())
	res.Metrics["found"] = boolMetric(kr.Found)
	res.Metrics["path_cost_rad"] = kr.PathCost
	res.Metrics["samples"] = float64(kr.Samples)
	res.Metrics["tree_nodes"] = float64(kr.TreeNodes)
	res.Metrics["nn_queries"] = float64(kr.NNQueries)
	res.Metrics["dist_calls"] = float64(kr.DistCalls)
	res.Metrics["seg_checks"] = float64(kr.SegChecks)
	res.Metrics["rewires"] = float64(kr.Rewires)
	res.Metrics["shortcuts"] = float64(kr.Shortcuts)
	res.Degraded = kr.Degraded
	return res
}

// symRun is shared by the sym-blkw/sym-fext adapters.
func symRun(name string) func(context.Context, sym.Config, *profile.Profile) (Result, error) {
	return func(ctx context.Context, cfg sym.Config, p *profile.Profile) (Result, error) {
		kr, err := sym.Run(ctx, cfg, p)
		res := newResult(name, Planning, p.Snapshot())
		res.Metrics["found"] = boolMetric(kr.Found)
		res.Metrics["plan_length"] = float64(kr.PlanLength)
		res.Metrics["expanded"] = float64(kr.Stats.Expanded)
		res.Metrics["generated"] = float64(kr.Stats.Generated)
		res.Metrics["string_bytes"] = float64(kr.Stats.StringBytes)
		res.Metrics["avg_branching"] = kr.Stats.AvgBranching()
		res.Metrics["ground_actions"] = float64(kr.GroundActions)
		return res, err
	}
}
