// Package search implements the best-first graph search algorithms that
// drive the planning kernels: A* (pp2d, pp3d, prm, symbolic planning),
// Dijkstra, Weighted A* (the moving-target kernel inflates its heuristic by
// ε, per Pohl 1970), and the backward-Dijkstra heuristic field the
// moving-target kernel precomputes "in an environment-aware manner".
//
// The search is generic over a Space: states are dense or sparse integer
// IDs, successors are produced through a callback so that hot loops do not
// allocate. Spaces that report their state count get array-backed search
// bookkeeping, allocated in pages as the search touches them; unbounded
// spaces (the symbolic planner's implicit state graph) fall back to maps.
package search

import (
	"context"
	"errors"
	"math"

	"repro/internal/pq"
)

// Space is a directed graph over integer state IDs.
type Space interface {
	// Neighbors invokes yield for every successor of id with the edge cost.
	Neighbors(id int, yield func(to int, cost float64))
}

// Sized is implemented by spaces with a known, dense state range [0, n).
// Solve uses paged-array bookkeeping for such spaces.
type Sized interface {
	NumStates() int
}

// Heuristic estimates cost-to-goal from a state. It must be non-negative;
// admissibility is required only for optimality, not correctness.
type Heuristic func(id int) float64

// Problem describes one search episode.
type Problem struct {
	Space Space
	Start int

	// Goal is the target state used when IsGoal is nil.
	Goal int
	// IsGoal, when non-nil, generalizes the goal test (the moving-target
	// kernel accepts any state that intercepts the target's trajectory).
	IsGoal func(id int) bool

	// H is the heuristic; nil runs Dijkstra.
	H Heuristic
	// Weight inflates the heuristic (Weighted A*). Values <= 1 mean plain
	// A*. The paper's movtar kernel uses ε > 1 to trade path cost for
	// search speed.
	Weight float64

	// MaxExpansions aborts the search after this many expansions
	// (0 = unlimited).
	MaxExpansions int

	// Ctx, when non-nil, cancels the search: Solve polls it every
	// ctxCheckStride expansions and returns the partial Result with
	// Ctx.Err(). A nil Ctx is never polled (no overhead).
	Ctx context.Context
}

// Result reports the outcome of a search.
type Result struct {
	Found    bool
	Path     []int // start..goal, empty when !Found
	Cost     float64
	Expanded int // states popped from the open list
	Genered  int // successor edges generated
}

// ErrNoPath is returned when the goal is unreachable.
var ErrNoPath = errors.New("search: no path to goal")

// ctxCheckStride bounds how stale a cancellation can go unnoticed: the
// context is polled once per this many expansions, keeping the check off
// the per-neighbor fast path while still aborting within microseconds.
const ctxCheckStride = 1024

// Solve runs best-first search on p. It returns ErrNoPath when the open list
// empties (or MaxExpansions is hit) without reaching a goal state.
func Solve(p Problem) (Result, error) {
	if p.Space == nil {
		panic("search: nil Space")
	}
	isGoal := p.IsGoal
	if isGoal == nil {
		goal := p.Goal
		isGoal = func(id int) bool { return id == goal }
	}
	h := p.H
	if h == nil {
		h = func(int) float64 { return 0 }
	}
	w := p.Weight
	if w < 1 {
		w = 1
	}

	book, open := newBook(p.Space)
	book.setG(p.Start, 0)
	book.setParent(p.Start, p.Start)
	open.Push(p.Start, w*h(p.Start))

	var res Result
	// relax is built once per search, not per expansion: a closure handed
	// to an interface method escapes, so a per-expansion literal would be
	// one heap allocation per expanded state.
	var id int
	var gid float64
	relax := func(to int, cost float64) {
		res.Genered++
		if cost < 0 {
			panic("search: negative edge cost")
		}
		if book.closed(to) {
			return
		}
		ng := gid + cost
		if old, ok := book.gOk(to); ok && old <= ng {
			return
		}
		book.setG(to, ng)
		book.setParent(to, id)
		open.Update(to, ng+w*h(to))
	}
	for open.Len() > 0 {
		if p.Ctx != nil && res.Expanded%ctxCheckStride == 0 {
			if err := p.Ctx.Err(); err != nil {
				return res, err
			}
		}
		id, _ = open.Pop()
		if book.closed(id) {
			continue
		}
		book.close(id)
		res.Expanded++

		if isGoal(id) {
			res.Found = true
			res.Cost = book.g(id)
			res.Path = reconstruct(book, p.Start, id)
			return res, nil
		}
		if p.MaxExpansions > 0 && res.Expanded >= p.MaxExpansions {
			break
		}

		gid = book.g(id)
		p.Space.Neighbors(id, relax)
	}
	return res, ErrNoPath
}

func reconstruct(book bookkeeping, start, goal int) []int {
	var rev []int
	for id := goal; ; id = book.parent(id) {
		rev = append(rev, id)
		if id == start {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// bookkeeping abstracts dense (paged array) vs sparse (map) search state.
type bookkeeping interface {
	g(id int) float64
	gOk(id int) (float64, bool)
	setG(id int, v float64)
	parent(id int) int
	setParent(id, p int)
	closed(id int) bool
	close(id int)
}

// newBook returns the bookkeeping and open list for a search over sp:
// paged arrays when sp is Sized, maps otherwise.
func newBook(sp Space) (bookkeeping, *pq.IndexedHeap) {
	if s, ok := sp.(Sized); ok && s.NumStates() > 0 {
		return newDenseBook(s.NumStates()), pq.NewIndexedHeapDense(s.NumStates())
	}
	return newSparseBook(), pq.NewIndexedHeap(64)
}

// denseBook keeps search state in paged arrays over the state range, so a
// search pays for the pages it writes, not for the whole space: par uses 0
// as "unvisited" and stores parent+1, and gv is only meaningful where
// par != 0.
type denseBook struct {
	gv      pq.Paged[float64]
	par     pq.Paged[uint32]
	closedB pq.Paged[bool]
}

func newDenseBook(n int) *denseBook {
	return &denseBook{
		gv:      pq.NewPaged[float64](n),
		par:     pq.NewPaged[uint32](n),
		closedB: pq.NewPaged[bool](n),
	}
}

func (b *denseBook) g(id int) float64 { return b.gv.Get(id) }
func (b *denseBook) gOk(id int) (float64, bool) {
	if b.par.Get(id) == 0 {
		return 0, false
	}
	return b.gv.Get(id), true
}
func (b *denseBook) setG(id int, v float64) { b.gv.Set(id, v) }
func (b *denseBook) parent(id int) int      { return int(b.par.Get(id)) - 1 }
func (b *denseBook) setParent(id, p int)    { b.par.Set(id, uint32(p+1)) }
func (b *denseBook) closed(id int) bool     { return b.closedB.Get(id) }
func (b *denseBook) close(id int)           { b.closedB.Set(id, true) }

type sparseBook struct {
	gv      map[int]float64
	par     map[int]int
	closedM map[int]struct{}
}

func newSparseBook() *sparseBook {
	return &sparseBook{
		gv:      make(map[int]float64),
		par:     make(map[int]int),
		closedM: make(map[int]struct{}),
	}
}

func (b *sparseBook) g(id int) float64 { return b.gv[id] }
func (b *sparseBook) gOk(id int) (float64, bool) {
	v, ok := b.gv[id]
	return v, ok
}
func (b *sparseBook) setG(id int, v float64) { b.gv[id] = v }
func (b *sparseBook) parent(id int) int      { return b.par[id] }
func (b *sparseBook) setParent(id, p int)    { b.par[id] = p }
func (b *sparseBook) closed(id int) bool {
	_, ok := b.closedM[id]
	return ok
}
func (b *sparseBook) close(id int) { b.closedM[id] = struct{}{} }

// DijkstraAll computes the cost of the cheapest path from source to every
// reachable state of a sized space. Unreached states report +Inf.
//
// The moving-target kernel runs this backward from the goal region over the
// reversed graph to obtain its environment-aware heuristic field ("before
// starting planning, the backward Dijkstra algorithm is executed to
// calculate the heuristic values").
func DijkstraAll(sp Space, source int) []float64 {
	sized, ok := sp.(Sized)
	if !ok {
		panic("search: DijkstraAll requires a Sized space")
	}
	n := sized.NumStates()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	open := pq.NewIndexedHeap(256)
	dist[source] = 0
	open.Push(source, 0)
	for open.Len() > 0 {
		id, d := open.Pop()
		if d > dist[id] {
			continue
		}
		sp.Neighbors(id, func(to int, cost float64) {
			nd := d + cost
			if nd < dist[to] {
				dist[to] = nd
				open.Update(to, nd)
			}
		})
	}
	return dist
}
