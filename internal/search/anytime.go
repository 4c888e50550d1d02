package search

import (
	"math"

	"repro/internal/pq"
)

// AnytimeResult is one solution of an anytime search: the path found at a
// particular heuristic inflation, with the expansions spent on that
// improvement round (cumulative work is the sum over rounds).
type AnytimeResult struct {
	Epsilon  float64
	Path     []int
	Cost     float64
	Expanded int
}

// SolveAnytime runs ARA* (Anytime Repairing A*, Likhachev et al.): a
// sequence of Weighted-A* searches with decreasing inflation that reuse
// earlier search effort. The first solution arrives with the largest ε in
// the schedule (fast, suboptimal within ε·C*); each subsequent round
// repairs the solution at a smaller ε instead of searching from scratch —
// locally inconsistent states are carried over rather than re-expanded.
//
// The schedule must be non-increasing and end at the final desired bound
// (1.0 for optimal). The problem's IsGoal must be nil (ARA* needs a
// concrete goal state to track f(goal)).
func SolveAnytime(p Problem, schedule []float64) ([]AnytimeResult, error) {
	if p.Space == nil {
		panic("search: nil Space")
	}
	if p.IsGoal != nil {
		panic("search: SolveAnytime requires a concrete Goal, not IsGoal")
	}
	if len(schedule) == 0 {
		schedule = []float64{1}
	}
	h := p.H
	if h == nil {
		h = func(int) float64 { return 0 }
	}

	book, open := newBook(p.Space)
	book.setG(p.Start, 0)
	book.setParent(p.Start, p.Start)

	goal := p.Goal
	gGoal := func() float64 {
		if v, ok := book.gOk(goal); ok {
			return v
		}
		return math.Inf(1)
	}

	var results []AnytimeResult
	// incons collects locally inconsistent states discovered while closed;
	// they re-enter OPEN at the next ε.
	var incons []int
	// closedRound marks states closed in the current improvement round.
	closedRound := map[int]int{}
	round := 0

	open.Push(p.Start, schedule[0]*h(p.Start))

	for _, eps := range schedule {
		round++
		// Re-prioritize OPEN under the new ε and merge INCONS into it.
		for _, id := range incons {
			if !open.Contains(id) {
				open.Push(id, 0) // priority fixed below
			}
		}
		incons = incons[:0]
		reprioritize(open, book, h, eps)

		expanded := 0
		for open.Len() > 0 {
			if p.Ctx != nil && expanded%ctxCheckStride == 0 {
				if err := p.Ctx.Err(); err != nil {
					return results, err
				}
			}
			// Stop when the incumbent is provably within ε of optimal
			// under the current inflation: f(goal) <= min key.
			_, minKey := open.Peek()
			if gGoal() <= minKey {
				break
			}
			id, _ := open.Pop()
			if closedRound[id] == round {
				continue
			}
			closedRound[id] = round
			expanded++
			gid := book.g(id)
			p.Space.Neighbors(id, func(to int, cost float64) {
				if cost < 0 {
					panic("search: negative edge cost")
				}
				ng := gid + cost
				if old, ok := book.gOk(to); ok && old <= ng {
					return
				}
				book.setG(to, ng)
				book.setParent(to, id)
				if closedRound[to] == round {
					// Locally inconsistent: defer to the next round.
					incons = append(incons, to)
					return
				}
				open.Update(to, ng+eps*h(to))
			})
		}

		if math.IsInf(gGoal(), 1) {
			return results, ErrNoPath
		}
		results = append(results, AnytimeResult{
			Epsilon:  eps,
			Path:     reconstruct(book, p.Start, goal),
			Cost:     gGoal(),
			Expanded: expanded,
		})
	}
	return results, nil
}

// Peek is needed on the open list; pq.IndexedHeap stores the minimum at
// slot 0 — expose it via a tiny helper here to keep pq's API small.
func reprioritize(open *pq.IndexedHeap, book bookkeeping, h Heuristic, eps float64) {
	// Rebuild by draining and re-pushing with the new priorities. O(n log n),
	// amortized against the round's expansions.
	var ids []int
	for open.Len() > 0 {
		id, _ := open.Pop()
		ids = append(ids, id)
	}
	for _, id := range ids {
		open.Push(id, book.g(id)+eps*h(id))
	}
}
