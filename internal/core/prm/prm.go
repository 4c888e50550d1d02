// Package prm implements kernel 07.prm: probabilistic-roadmap motion
// planning for a multi-DoF arm manipulator (paper §V.7).
//
// PRM has an offline phase — sample random configurations, keep the
// collision-free ones, connect each to its nearest neighbors with
// collision-checked edges — and an online phase that connects the start and
// goal configurations to the roadmap and searches it with A*. The paper
// notes the online search is the critical path and that frequent L2-norm
// computations (configuration distances in n-dimensional space) are a
// bottleneck; the harness phases and counters here expose both.
package prm

import (
	"context"
	"errors"
	"math"
	"sync"

	"repro/internal/arm"
	"repro/internal/check"
	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/search"
)

// Config parameterizes a roadmap build + query.
type Config struct {
	// Arm is the manipulator; nil uses the paper's 5-DoF default.
	Arm *arm.Arm
	// Workspace selects the obstacle set; nil uses Map-C (cluttered). Use
	// arm.MapF() for the free map.
	Workspace *arm.Workspace
	// Samples is the number of roadmap samples (collision-free samples
	// kept, so the roadmap has up to this many nodes).
	Samples int
	// K is the number of nearest neighbors to attempt connecting.
	K int
	// EdgeStep is the joint-space collision sampling step, radians.
	EdgeStep float64
	// Lazy enables Lazy PRM (Bohlin & Kavraki): roadmap edges are added
	// without collision checks, and only the edges of candidate paths are
	// validated during the online query — the classic way to move the
	// collision-detection bottleneck off the offline phase.
	Lazy bool
	// Start and Goal configurations; nil picks default reach poses.
	Start, Goal []float64
	Seed        int64
	// Workers bounds the goroutines the offline connection phase fans out
	// over; <= 1 connects inline. Each node's edges are a pure function of
	// the roadmap and are folded in node order, so Workers never changes a
	// result. Sampling and the online query are serial. See DESIGN.md
	// "Intra-kernel parallelism".
	Workers int
}

// Validate reports every dimension, bound, and finiteness violation in the
// config.
func (c Config) Validate() error {
	f := check.New("prm")
	f.PositiveInt("Samples", c.Samples)
	f.PositiveInt("K", c.K)
	f.NonNegative("EdgeStep", c.EdgeStep)
	f.NonNegativeInt("Workers", c.Workers)
	dof := 5 // arm.Default5DoF
	if c.Arm != nil {
		dof = c.Arm.DoF()
	}
	for _, cq := range []struct {
		name string
		q    []float64
	}{{"Start", c.Start}, {"Goal", c.Goal}} {
		if cq.q == nil {
			continue
		}
		if len(cq.q) != dof {
			f.Addf("%s has %d joints, arm has %d", cq.name, len(cq.q), dof)
		}
		for i, v := range cq.q {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				f.Addf("%s[%d] is non-finite (%v)", cq.name, i, v)
			}
		}
	}
	return f.Err()
}

// DefaultConfig returns the paper-style setup: a 5-DoF arm in the cluttered
// map with a 4000-sample roadmap.
func DefaultConfig() Config {
	return Config{
		Samples:  4000,
		K:        10,
		EdgeStep: 0.08,
		Seed:     1,
	}
}

// Result reports the query outcome and workload statistics.
type Result struct {
	Found bool
	// Path is the configuration-space path, start to goal.
	Path [][]float64
	// PathCost is the summed joint-space L2 length of the path.
	PathCost float64
	// RoadmapNodes and RoadmapEdges describe the offline graph.
	RoadmapNodes, RoadmapEdges int
	// Expanded counts online A* expansions.
	Expanded int
	// L2Norms counts configuration-distance evaluations (the paper's
	// flagged bottleneck operation).
	L2Norms int64
	// SegChecks counts link-versus-obstacle tests during collision checks.
	SegChecks int64
	// LazyRejected counts roadmap edges discarded by Lazy PRM's deferred
	// validation (0 in eager mode).
	LazyRejected int
}

// Run executes the kernel. Harness phases: offline "sample" and "connect";
// online "query" wrapping the A* search (the critical path the paper calls
// out). A cancelled ctx aborts any of the three phases promptly, returning
// ctx.Err().
func Run(ctx context.Context, cfg Config, prof *profile.Profile) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	a := cfg.Arm
	if a == nil {
		a = arm.Default5DoF()
	}
	ws := cfg.Workspace
	if ws == nil {
		ws = arm.MapC()
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	step := cfg.EdgeStep
	if step <= 0 {
		step = 0.08
	}
	r := rng.New(cfg.Seed)
	dof := a.DoF()

	start, goal := cfg.Start, cfg.Goal
	if start == nil {
		start = arm.DefaultStart(dof)
	}
	if goal == nil {
		goal = arm.DefaultGoal(dof)
	}
	scratch := make([]geom.Vec2, 0, dof+1)
	cfgScratch := make([]float64, dof)
	if !ws.CollisionFree(a, start, scratch) {
		return Result{}, errors.New("prm: start configuration in collision")
	}
	if !ws.CollisionFree(a, goal, scratch) {
		return Result{}, errors.New("prm: goal configuration in collision")
	}

	res := Result{}
	var l2norms int64
	dist := func(x, y []float64) float64 {
		l2norms++
		return arm.ConfigDist(x, y)
	}

	prof.BeginROI()

	// ---- Offline phase: sampling.
	prof.Begin("sample")
	tree := kdtree.New(dof, nil)
	nodes := make([][]float64, 0, cfg.Samples)
	for len(nodes) < cfg.Samples {
		if err := ctx.Err(); err != nil {
			prof.End()
			prof.EndROI()
			return res, err
		}
		c := make([]float64, dof)
		for i := range c {
			c[i] = r.Uniform(-math.Pi, math.Pi)
		}
		if ws.CollisionFree(a, c, scratch) {
			tree.Insert(c, len(nodes))
			nodes = append(nodes, c)
			prof.StepDone() // one step per accepted roadmap sample
		}
	}
	prof.End()

	// ---- Offline phase: connecting k-nearest neighbors. Lazy PRM defers
	// the edge collision checks to query time.
	prof.Begin("connect")
	conn := connector{k: cfg.K, lazy: cfg.Lazy, a: a, step: step, nodes: nodes, tree: tree, ws: ws, scratch: scratch, cfgScratch: cfgScratch}
	adj, err := conn.roadmap(ctx, cfg.Workers)
	if err != nil {
		prof.End()
		prof.EndROI()
		return res, err
	}
	for i := range adj {
		// Mirror each node's lower-index edges in node order: the
		// adjacency a single interleaved pass would build.
		for _, e := range adj[i] {
			adj[e.to] = append(adj[e.to], edge{i, e.cost})
		}
		l2norms += int64(len(adj[i]))
		res.RoadmapEdges += len(adj[i])
	}
	prof.End()
	prof.StepDone() // roadmap connection is one step

	// ---- Online phase: connect start/goal, then A* over the roadmap.
	prof.Begin("query")
	startID := len(nodes)
	goalID := len(nodes) + 1
	all := append(append([][]float64{}, nodes...), start, goal)
	adj = append(adj, nil, nil)
	connectEndpoint := func(id int, c []float64) {
		conn.nbrBuf = tree.KNearestAppend(c, 3*cfg.K, conn.nbrBuf[:0])
		for _, j := range conn.nbrBuf {
			if cfg.Lazy || ws.EdgeFree(a, c, nodes[j], step, scratch, cfgScratch) {
				d := dist(c, nodes[j])
				adj[id] = append(adj[id], edge{j, d})
				adj[j] = append(adj[j], edge{id, d})
			}
		}
	}
	connectEndpoint(startID, start)
	connectEndpoint(goalID, goal)

	sp := &roadmapSpace{adj: adj}
	h := func(id int) float64 { return dist(all[id], goal) }

	var sr search.Result
	var serr error
	if !cfg.Lazy {
		sr, serr = search.Solve(search.Problem{Space: sp, Start: startID, Goal: goalID, H: h, Ctx: ctx})
	} else {
		// Lazy PRM query loop: search over the optimistic roadmap, validate
		// only the edges on the candidate path, drop invalid ones, repeat.
		validated := map[[2]int]bool{}
		for {
			if serr = ctx.Err(); serr != nil {
				break
			}
			sr, serr = search.Solve(search.Problem{Space: sp, Start: startID, Goal: goalID, H: h, Ctx: ctx})
			if serr != nil || !sr.Found {
				break
			}
			allFree := true
			for i := 1; i < len(sr.Path); i++ {
				u, v := sr.Path[i-1], sr.Path[i]
				key := [2]int{minInt(u, v), maxInt(u, v)}
				if validated[key] {
					continue
				}
				if ws.EdgeFree(a, all[u], all[v], step, scratch, cfgScratch) {
					validated[key] = true
					continue
				}
				sp.removeEdge(u, v)
				res.LazyRejected++
				allFree = false
				break
			}
			if allFree {
				break
			}
		}
	}
	prof.End()
	prof.StepDone() // the online query is one step
	prof.EndROI()

	res.RoadmapNodes = len(nodes)
	res.Found = sr.Found
	res.Expanded = sr.Expanded
	res.L2Norms = l2norms
	res.SegChecks = ws.SegChecks
	if sr.Found {
		res.PathCost = sr.Cost
		for _, id := range sr.Path {
			res.Path = append(res.Path, all[id])
		}
	}
	if serr != nil {
		return res, serr
	}
	return res, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

type edge struct {
	to   int
	cost float64
}

// connector is the connection phase's per-node body with its private
// state: KNearestAppend's candidate heap makes a kd-tree non-reentrant, and
// edge checks count into their workspace and use its scratch.
type connector struct {
	k          int
	lazy       bool
	a          *arm.Arm
	step       float64
	nodes      [][]float64
	tree       *kdtree.Tree
	ws         *arm.Workspace
	scratch    []geom.Vec2
	cfgScratch []float64
	nbrBuf     []int
}

// lower appends to dst node i's edges to the lower-index nodes among its
// K nearest that pass the edge check, nearest first. It reads only the
// roadmap, so its result does not depend on which connector runs it.
func (c *connector) lower(i int, dst []edge) []edge {
	q := c.nodes[i]
	c.nbrBuf = c.tree.KNearestAppend(q, c.k+1, c.nbrBuf[:0])
	for _, j := range c.nbrBuf {
		if j >= i {
			continue // undirected; connect each pair once
		}
		if c.lazy || c.ws.EdgeFree(c.a, q, c.nodes[j], c.step, c.scratch, c.cfgScratch) {
			dst = append(dst, edge{j, arm.ConfigDist(q, c.nodes[j])})
		}
	}
	return dst
}

// stride fills adj[i] with node i's lower-index edges for i = first,
// first+by, first+2·by, …, polling ctx every 256 nodes.
func (c *connector) stride(ctx context.Context, adj [][]edge, first, by int) error {
	for k, i := 0, first; i < len(adj); k, i = k+1, i+by {
		if k%256 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		adj[i] = c.lower(i, adj[i])
	}
	return nil
}

// roadmap returns every node's lower-index edges. With workers > 1, worker
// w connects nodes w, w+workers, … on its own kd-tree and workspace clone,
// and the clones' collision counts fold back into c.ws. Interleaving
// balances the load: node i checks edges to its neighbors below i, so the
// work per node grows with i. Each worker allocates its own clone, which
// keeps the SegChecks counters it bumps in the innermost loop off the
// cache lines of its siblings'.
func (c *connector) roadmap(ctx context.Context, workers int) ([][]edge, error) {
	adj := make([][]edge, len(c.nodes))
	if workers <= 1 {
		return adj, c.stride(ctx, adj, 0, 1)
	}
	// The goroutines capture a copy, never c, so that c — the caller's
	// inline connector — stays on the stack.
	base := *c
	segChecks := make([]int64, min(workers, len(adj)))
	var wg sync.WaitGroup
	for w := range segChecks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc := connector{
				k: base.k, lazy: base.lazy, a: base.a, step: base.step, nodes: base.nodes,
				tree:       base.tree.Clone(),
				ws:         &arm.Workspace{Obstacles: base.ws.Obstacles},
				scratch:    make([]geom.Vec2, 0, cap(base.scratch)),
				cfgScratch: make([]float64, len(base.cfgScratch)),
			}
			_ = wc.stride(ctx, adj, w, len(segChecks)) // its only error is ctx's, returned below
			segChecks[w] = wc.ws.SegChecks
		}()
	}
	wg.Wait()
	for _, sc := range segChecks {
		c.ws.SegChecks += sc
	}
	return adj, ctx.Err()
}

// roadmapSpace adapts the adjacency lists to the search interface.
type roadmapSpace struct {
	adj [][]edge
}

// removeEdge deletes the undirected edge u-v (Lazy PRM discards edges whose
// deferred collision check fails).
func (s *roadmapSpace) removeEdge(u, v int) {
	drop := func(from, to int) {
		es := s.adj[from]
		for k, e := range es {
			if e.to == to {
				s.adj[from] = append(es[:k], es[k+1:]...)
				return
			}
		}
	}
	drop(u, v)
	drop(v, u)
}

// NumStates implements search.Sized.
func (s *roadmapSpace) NumStates() int { return len(s.adj) }

// Neighbors implements search.Space.
func (s *roadmapSpace) Neighbors(id int, yield func(to int, cost float64)) {
	for _, e := range s.adj[id] {
		yield(e.to, e.cost)
	}
}
