package rtrbench

import (
	"context"
	"fmt"

	"repro/internal/core/rrt"
	"repro/internal/profile"
)

func init() {
	registerSpec(Info{
		Name: "rrt", Index: 8, Stage: Planning,
		Description:      "Rapidly-exploring random tree planning for a 5-DoF arm",
		PaperBottlenecks: []string{"Collision detection", "nearest neighbor search"},
		ExpectDominant:   []string{"collision"},
	}, spec[rrt.Config]{
		configure: func(o Options) (rrt.Config, error) {
			// The "connect" variant runs the bidirectional RRT-Connect
			// extension; any other variant names a workspace.
			variant := o.Variant
			connect := variant == "connect"
			if connect {
				variant = ""
			}
			cfg, err := rrtConfig("rrt", o, variant)
			if err != nil {
				return cfg, fmt.Errorf("rrt: unknown variant %q", o.Variant)
			}
			cfg.Connect = connect
			return cfg, nil
		},
		// Path cost plus the sampling/NN/collision operation counts shared
		// by the RRT family (see rrtDigest).
		digest: rrtDigest,
		run: func(ctx context.Context, cfg rrt.Config, p *profile.Profile) (Result, error) {
			kr, err := rrt.Run(ctx, cfg, p)
			return rrtResult("rrt", p, kr), err
		},
	})
}
