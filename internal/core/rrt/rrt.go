// Package rrt implements kernels 08.rrt, 09.rrtstar, and 10.rrtpp:
// rapidly-exploring random trees for high-DoF arm planning in dynamic
// environments (paper §V.8-10).
//
//   - Run grows a plain RRT: sample, find the nearest tree node, steer a
//     bounded step toward the sample, collision-check the motion, extend.
//     Collision detection (≤62% of time) and nearest-neighbor search (≤31%)
//     dominate, as the paper measures.
//   - RunStar grows an RRT*: each new node chooses the cheapest parent in
//     its neighborhood and rewires neighbors through itself when that
//     shortens their paths. Rewiring multiplies nearest-neighbor work (the
//     paper sees its share grow to 49%) and makes RRT* several times slower
//     while producing markedly shorter paths.
//   - RunPP post-processes a plain RRT path by randomized shortcutting
//     (triangle inequality), landing between RRT and RRT* in both execution
//     time and path cost.
package rrt

import (
	"context"
	"errors"
	"math"

	"repro/internal/arm"
	"repro/internal/check"
	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/profile"
	"repro/internal/rng"
)

// Config parameterizes a planning run; it mirrors the original kernel's CLI
// (--bias, --epsilon, --radius, --samples, ...; paper Fig. 20).
type Config struct {
	// Arm is the manipulator; nil uses the paper's 5-DoF default.
	Arm *arm.Arm
	// Workspace selects the obstacle set; nil uses Map-C.
	Workspace *arm.Workspace
	// Start and Goal configurations; nil picks default reach poses.
	Start, Goal []float64
	// Bias is the probability of sampling the goal directly.
	Bias float64
	// Epsilon is the maximum extension step, radians (the CLI's
	// "minimum movement").
	Epsilon float64
	// Radius is the RRT* neighborhood distance, radians.
	Radius float64
	// GoalTol declares success when a node is within this joint-space
	// distance of the goal and the connecting motion is free.
	GoalTol float64
	// MaxSamples bounds the number of random samples drawn.
	MaxSamples int
	// EdgeStep is the collision sampling step along motions, radians.
	EdgeStep float64
	// ShortcutIters is the number of shortcut attempts in RunPP.
	ShortcutIters int
	Seed          int64
	// BestEffort makes cancellation degrade instead of fail for the anytime
	// variants: RunStar returns the best goal connection found so far and
	// RunPP returns the partially shortcut path, both with Result.Degraded
	// set, rather than ctx.Err(). Plain Run has no partial result to offer
	// and always fails on cancellation.
	BestEffort bool
	// Connect makes Run grow a bidirectional RRT-Connect (see RunConnect)
	// instead of a plain RRT.
	Connect bool
}

// Validate reports every dimension, bound, and finiteness violation in the
// config.
func (c Config) Validate() error {
	f := check.New("rrt")
	f.PositiveInt("MaxSamples", c.MaxSamples)
	f.Positive("Epsilon", c.Epsilon)
	f.Prob("Bias", c.Bias)
	f.NonNegative("Radius", c.Radius)
	f.NonNegative("GoalTol", c.GoalTol)
	f.NonNegative("EdgeStep", c.EdgeStep)
	dof := 5 // arm.Default5DoF
	if c.Arm != nil {
		dof = c.Arm.DoF()
	}
	for _, cq := range []struct {
		name string
		q    []float64
	}{{"Start", c.Start}, {"Goal", c.Goal}} {
		name, q := cq.name, cq.q
		if q == nil {
			continue
		}
		if len(q) != dof {
			f.Addf("%s has %d joints, arm has %d", name, len(q), dof)
		}
		for i, v := range q {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				f.Addf("%s[%d] is non-finite (%v)", name, i, v)
			}
		}
	}
	return f.Err()
}

// DefaultConfig returns the paper-style setup for the 5-DoF arm.
func DefaultConfig() Config {
	return Config{
		Bias:          0.08,
		Epsilon:       0.35,
		Radius:        0.9,
		GoalTol:       0.35,
		MaxSamples:    15000,
		EdgeStep:      0.08,
		ShortcutIters: 15,
		Seed:          1,
	}
}

// Result reports the planning outcome and workload statistics.
type Result struct {
	Found bool
	// Path is the configuration-space path, start to goal.
	Path [][]float64
	// PathCost is the joint-space L2 length of the path.
	PathCost float64
	// Samples drawn and TreeNodes grown.
	Samples, TreeNodes int
	// NNQueries counts nearest/radius queries; DistCalls the distance
	// evaluations they performed.
	NNQueries, DistCalls int64
	// SegChecks counts link-versus-obstacle segment tests.
	SegChecks int64
	// Rewires counts RRT* rewiring operations performed.
	Rewires int64
	// Shortcuts counts successful RunPP shortcuts.
	Shortcuts int64
	// Degraded is set when BestEffort turned a cancellation into a
	// best-so-far result (RunStar's best goal connection at cancel time,
	// RunPP's partially shortcut path).
	Degraded bool
}

type node struct {
	cfg      []float64
	parent   int
	cost     float64
	children []int
}

type planner struct {
	cfg     Config
	arm     *arm.Arm
	ws      *arm.Workspace
	r       *rng.RNG
	prof    *profile.Profile
	tree    *kdtree.Tree
	nodes   []node
	scratch []geom.Vec2
	cfgTmp  []float64
	nbrBuf  []int // reused RRT* neighborhood buffer; valid until the next near()
	res     *Result
}

func newPlanner(cfg Config, prof *profile.Profile, res *Result) (*planner, error) {
	a := cfg.Arm
	if a == nil {
		a = arm.Default5DoF()
	}
	ws := cfg.Workspace
	if ws == nil {
		ws = arm.MapC()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Start == nil {
		cfg.Start = arm.DefaultStart(a.DoF())
	}
	if cfg.Goal == nil {
		cfg.Goal = arm.DefaultGoal(a.DoF())
	}
	if cfg.EdgeStep <= 0 {
		cfg.EdgeStep = 0.08
	}
	p := &planner{
		cfg: cfg, arm: a, ws: ws,
		r:       rng.New(cfg.Seed),
		prof:    prof,
		tree:    kdtree.New(a.DoF(), nil),
		scratch: make([]geom.Vec2, 0, a.DoF()+1),
		cfgTmp:  make([]float64, a.DoF()),
		res:     res,
	}
	if !p.collisionFree(cfg.Start) {
		return nil, errors.New("rrt: start configuration in collision")
	}
	if !p.collisionFree(cfg.Goal) {
		return nil, errors.New("rrt: goal configuration in collision")
	}
	p.addNode(cfg.Start, -1, 0)
	return p, nil
}

func (p *planner) addNode(cfg []float64, parent int, cost float64) int {
	c := append([]float64(nil), cfg...)
	id := len(p.nodes)
	p.nodes = append(p.nodes, node{cfg: c, parent: parent, cost: cost})
	if parent >= 0 {
		p.nodes[parent].children = append(p.nodes[parent].children, id)
	}
	p.tree.Insert(c, id)
	return id
}

func (p *planner) collisionFree(cfg []float64) bool {
	p.prof.Begin("collision")
	ok := p.ws.CollisionFree(p.arm, cfg, p.scratch)
	p.prof.End()
	return ok
}

func (p *planner) edgeFree(a, b []float64) bool {
	p.prof.Begin("collision")
	ok := p.ws.EdgeFree(p.arm, a, b, p.cfg.EdgeStep, p.scratch, p.cfgTmp)
	p.prof.End()
	return ok
}

// sample draws a goal-biased uniform random configuration into dst.
func (p *planner) sample(dst []float64) {
	p.prof.Begin("sample")
	if p.r.Float64() < p.cfg.Bias {
		copy(dst, p.cfg.Goal)
	} else {
		for i := range dst {
			dst[i] = p.r.Uniform(-math.Pi, math.Pi)
		}
	}
	p.prof.End()
}

// nearest returns the tree node closest to q.
func (p *planner) nearest(q []float64) int {
	p.prof.Begin("nn")
	id, _, _ := p.tree.Nearest(q)
	p.res.NNQueries++
	p.prof.End()
	return id
}

// near returns the tree nodes within the RRT* neighborhood of q. The
// returned slice aliases a planner-owned buffer and is only valid until the
// next call.
func (p *planner) near(q []float64) []int {
	p.prof.Begin("nn")
	p.nbrBuf = p.tree.RadiusAppend(q, p.cfg.Radius*p.cfg.Radius, p.nbrBuf[:0])
	p.res.NNQueries++
	p.prof.End()
	return p.nbrBuf
}

// steer moves from the tree node toward the sample by at most Epsilon,
// writing the result into dst. It returns the motion length.
func (p *planner) steer(from, sample, dst []float64) float64 {
	d := arm.ConfigDist(from, sample)
	if d <= p.cfg.Epsilon {
		copy(dst, sample)
		return d
	}
	t := p.cfg.Epsilon / d
	for i := range dst {
		dst[i] = from[i] + t*(sample[i]-from[i])
	}
	return p.cfg.Epsilon
}

// pathTo extracts the configuration path from the root to node id.
func (p *planner) pathTo(id int) ([][]float64, float64) {
	var rev [][]float64
	for i := id; i != -1; i = p.nodes[i].parent {
		rev = append(rev, p.nodes[i].cfg)
	}
	out := make([][]float64, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out, p.nodes[id].cost
}

func (p *planner) finish(goalNode int) {
	path, cost := p.pathTo(goalNode)
	// Append the exact goal configuration.
	gc := append([]float64(nil), p.cfg.Goal...)
	cost += arm.ConfigDist(path[len(path)-1], gc)
	path = append(path, gc)
	p.res.Found = true
	p.res.Path = path
	p.res.PathCost = cost
}

func (p *planner) collectStats() {
	p.res.TreeNodes = len(p.nodes)
	p.res.DistCalls = p.tree.DistCalls
	p.res.SegChecks = p.ws.SegChecks
}

// Run executes the plain RRT kernel, or RunConnect when cfg.Connect is set.
// Harness phases: "sample", "nn", "collision". A cancelled ctx aborts
// between sampling iterations, returning ctx.Err().
func Run(ctx context.Context, cfg Config, prof *profile.Profile) (Result, error) {
	if cfg.Connect {
		return RunConnect(ctx, cfg, prof)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var res Result
	prof.BeginROI()
	p, err := newPlanner(cfg, prof, &res)
	if err != nil {
		prof.EndROI()
		return res, err
	}
	sample := make([]float64, p.arm.DoF())
	newCfg := make([]float64, p.arm.DoF())
	for res.Samples = 0; res.Samples < cfg.MaxSamples; res.Samples++ {
		if err := ctx.Err(); err != nil {
			p.collectStats()
			prof.EndROI()
			return res, err
		}
		p.sample(sample)
		ni := p.nearest(sample)
		p.steer(p.nodes[ni].cfg, sample, newCfg)
		if !p.edgeFree(p.nodes[ni].cfg, newCfg) {
			prof.StepDone() // one step per sampling iteration
			continue
		}
		id := p.addNode(newCfg, ni, p.nodes[ni].cost+arm.ConfigDist(p.nodes[ni].cfg, newCfg))
		if arm.ConfigDist(newCfg, p.cfg.Goal) <= p.cfg.GoalTol && p.edgeFree(newCfg, p.cfg.Goal) {
			p.finish(id)
			prof.StepDone()
			break
		}
		prof.StepDone()
	}
	p.collectStats()
	prof.EndROI()
	if !res.Found {
		return res, errors.New("rrt: no path within sample budget")
	}
	return res, nil
}

// RunStar executes the RRT* kernel. Harness phases add "rewire" on top of
// RRT's. The search continues through the full sample budget, improving the
// best goal connection as the tree densifies. A cancelled ctx aborts
// between sampling iterations, returning ctx.Err().
func RunStar(ctx context.Context, cfg Config, prof *profile.Profile) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var res Result
	prof.BeginROI()
	p, err := newPlanner(cfg, prof, &res)
	if err != nil {
		prof.EndROI()
		return res, err
	}
	if cfg.Radius <= 0 {
		prof.EndROI()
		return res, errors.New("rrt: RRT* requires a positive Radius")
	}
	sample := make([]float64, p.arm.DoF())
	newCfg := make([]float64, p.arm.DoF())
	bestGoal := -1
	bestCost := math.Inf(1)

	for res.Samples = 0; res.Samples < cfg.MaxSamples; res.Samples++ {
		if err := ctx.Err(); err != nil {
			if cfg.BestEffort {
				// Fall through to the final goal re-evaluation: whatever
				// connection the tree holds now is the degraded answer.
				res.Degraded = true
				break
			}
			p.collectStats()
			prof.EndROI()
			return res, err
		}
		p.sample(sample)
		ni := p.nearest(sample)
		p.steer(p.nodes[ni].cfg, sample, newCfg)
		if !p.edgeFree(p.nodes[ni].cfg, newCfg) {
			prof.StepDone() // one step per sampling iteration
			continue
		}

		// Choose the cheapest collision-free parent in the neighborhood.
		neighbors := p.near(newCfg)
		parent := ni
		cost := p.nodes[ni].cost + arm.ConfigDist(p.nodes[ni].cfg, newCfg)
		for _, j := range neighbors {
			if j == ni {
				continue
			}
			c := p.nodes[j].cost + arm.ConfigDist(p.nodes[j].cfg, newCfg)
			if c < cost && p.edgeFree(p.nodes[j].cfg, newCfg) {
				parent, cost = j, c
			}
		}
		id := p.addNode(newCfg, parent, cost)

		// Rewire: route neighbors through the new node when cheaper.
		prof.Begin("rewire")
		for _, j := range neighbors {
			if j == parent {
				continue
			}
			nj := &p.nodes[j]
			c := cost + arm.ConfigDist(newCfg, nj.cfg)
			if c+1e-12 < nj.cost {
				prof.End() // attribute the edge check to "collision"
				free := p.edgeFree(newCfg, nj.cfg)
				prof.Begin("rewire")
				if !free {
					continue
				}
				// Detach from the old parent, attach under the new node.
				old := nj.parent
				if old >= 0 {
					ch := p.nodes[old].children
					for k, v := range ch {
						if v == j {
							p.nodes[old].children = append(ch[:k], ch[k+1:]...)
							break
						}
					}
				}
				nj.parent = id
				p.nodes[id].children = append(p.nodes[id].children, j)
				delta := c - nj.cost
				nj.cost = c
				p.propagate(j, delta)
				res.Rewires++
			}
		}
		prof.End()

		if arm.ConfigDist(newCfg, p.cfg.Goal) <= p.cfg.GoalTol {
			total := cost + arm.ConfigDist(newCfg, p.cfg.Goal)
			if total < bestCost && p.edgeFree(newCfg, p.cfg.Goal) {
				bestGoal, bestCost = id, total
			}
		}
		prof.StepDone()
	}
	// Rewiring keeps lowering node costs after they connect to the goal,
	// so re-evaluate every goal-tolerant node with its final tree cost.
	for _, j := range p.near(p.cfg.Goal) {
		d := arm.ConfigDist(p.nodes[j].cfg, p.cfg.Goal)
		if d > p.cfg.GoalTol {
			continue
		}
		total := p.nodes[j].cost + d
		if total < bestCost && p.edgeFree(p.nodes[j].cfg, p.cfg.Goal) {
			bestGoal, bestCost = j, total
		}
	}
	if bestGoal >= 0 {
		p.finish(bestGoal)
	}
	p.collectStats()
	prof.EndROI()
	if !res.Found {
		if res.Degraded {
			// Cancelled before any goal connection existed: nothing to
			// degrade to, so this is a genuine failure.
			return res, ctx.Err()
		}
		return res, errors.New("rrt: RRT* found no path within sample budget")
	}
	return res, nil
}

// propagate adds delta to the cost of every descendant of id (rewiring
// shifted the subtree's root cost).
func (p *planner) propagate(id int, delta float64) {
	for _, c := range p.nodes[id].children {
		p.nodes[c].cost += delta
		p.propagate(c, delta)
	}
}

// RunPP executes the RRT-with-post-processing kernel: a plain RRT run
// followed by randomized shortcutting. Harness phases add "shortcut". A
// cancelled ctx aborts either stage, returning ctx.Err().
func RunPP(ctx context.Context, cfg Config, prof *profile.Profile) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res, err := Run(ctx, cfg, prof)
	if err != nil || !res.Found {
		return res, err
	}
	iters := cfg.ShortcutIters
	if iters <= 0 {
		iters = 15
	}
	r := rng.New(cfg.Seed + 0x5c)
	a := cfg.Arm
	if a == nil {
		a = arm.Default5DoF()
	}
	ws := cfg.Workspace
	if ws == nil {
		ws = arm.MapC()
	}
	step := cfg.EdgeStep
	if step <= 0 {
		step = 0.08
	}
	scratch := make([]geom.Vec2, 0, a.DoF()+1)
	cfgTmp := make([]float64, a.DoF())

	prof.BeginROI()
	prof.Begin("shortcut")
	path := res.Path
	for it := 0; it < iters && len(path) > 2; it++ {
		if err := ctx.Err(); err != nil {
			prof.End()
			prof.EndROI()
			res.Path = path
			res.PathCost = pathCost(path)
			if cfg.BestEffort {
				// The RRT path is valid however few shortcuts ran; return
				// the partially shortcut path as the degraded result.
				res.Degraded = true
				return res, nil
			}
			return res, err
		}
		i := r.Intn(len(path) - 2)
		j := i + 2 + r.Intn(len(path)-i-2)
		// Shortcut i -> j if the direct motion is free (triangle
		// inequality guarantees it is no longer than the detour).
		prof.End() // attribute the edge check to "collision"
		free := ws.EdgeFree(a, path[i], path[j], step, scratch, cfgTmp)
		prof.Begin("shortcut")
		if !free {
			prof.StepDone() // one step per shortcut attempt
			continue
		}
		path = append(path[:i+1], path[j:]...)
		res.Shortcuts++
		prof.StepDone()
	}
	prof.End()
	prof.EndROI()

	res.Path = path
	res.PathCost = pathCost(path)
	// Shortcutting ran on its own workspace instance when cfg.Workspace was
	// nil, so add rather than overwrite the counter.
	if cfg.Workspace == nil {
		res.SegChecks += ws.SegChecks
	} else {
		res.SegChecks = ws.SegChecks
	}
	return res, nil
}

func pathCost(path [][]float64) float64 {
	var s float64
	for i := 1; i < len(path); i++ {
		s += arm.ConfigDist(path[i-1], path[i])
	}
	return s
}
