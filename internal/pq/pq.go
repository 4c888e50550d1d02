// Package pq provides the priority queues behind every graph-search kernel
// in the suite (A*, Dijkstra, Weighted A*, and the backward-Dijkstra
// heuristic of the moving-target planner).
//
// IndexedHeap supports decrease-key, which the search substrates use to
// reorder open nodes in place instead of pushing duplicates; Heap is a plain
// binary min-heap for callers that do not need addressability.
package pq

// IndexedHeap is a binary min-heap of int items keyed by float64 priorities,
// with O(log n) DecreaseKey. Items are non-negative integers chosen by the
// caller (typically node IDs); each item may appear at most once.
//
// The position index is a map by default; NewIndexedHeapDense swaps in a
// paged array when the item universe [0, n) is known, which removes hashing
// from the graph-search hot loop.
type IndexedHeap struct {
	items []int     // heap order
	prio  []float64 // priority per heap slot
	pos   map[int]int
	// densePos[item] = heap slot + 1; 0 = absent. Used instead of pos when
	// pos is nil.
	densePos Paged[int32]
}

// NewIndexedHeap returns an empty heap with capacity hint n.
func NewIndexedHeap(n int) *IndexedHeap {
	return &IndexedHeap{
		items: make([]int, 0, n),
		prio:  make([]float64, 0, n),
		pos:   make(map[int]int, n),
	}
}

// NewIndexedHeapDense returns an empty heap whose items are restricted to
// [0, universe); its position index is a Paged array, so construction costs
// one pointer per page of the universe and an index page is allocated only
// when an item in it is first pushed.
func NewIndexedHeapDense(universe int) *IndexedHeap {
	return &IndexedHeap{densePos: NewPaged[int32](universe)}
}

func (h *IndexedHeap) lookup(item int) (int, bool) {
	if h.pos == nil {
		p := h.densePos.Get(item)
		return int(p) - 1, p != 0
	}
	i, ok := h.pos[item]
	return i, ok
}

func (h *IndexedHeap) setPos(item, slot int) {
	if h.pos == nil {
		h.densePos.Set(item, int32(slot+1))
		return
	}
	h.pos[item] = slot
}

func (h *IndexedHeap) clearPos(item int) {
	if h.pos == nil {
		h.densePos.Set(item, 0)
		return
	}
	delete(h.pos, item)
}

// Len returns the number of items in the heap.
func (h *IndexedHeap) Len() int { return len(h.items) }

// Reset empties the heap while retaining its allocated capacity, so a search
// loop can reuse one heap across episodes without reallocating. The position
// index is cleared by walking the current items (not the whole dense index),
// so Reset costs O(len) even with a large item universe.
func (h *IndexedHeap) Reset() {
	for _, it := range h.items {
		h.clearPos(it)
	}
	h.items = h.items[:0]
	h.prio = h.prio[:0]
}

// Contains reports whether item is in the heap.
func (h *IndexedHeap) Contains(item int) bool {
	_, ok := h.lookup(item)
	return ok
}

// Priority returns the current priority of item; ok is false if the item is
// absent.
func (h *IndexedHeap) Priority(item int) (p float64, ok bool) {
	i, ok := h.lookup(item)
	if !ok {
		return 0, false
	}
	return h.prio[i], true
}

// Push inserts item with the given priority. If the item is already present
// it panics; use Update for upserts.
func (h *IndexedHeap) Push(item int, priority float64) {
	if _, ok := h.lookup(item); ok {
		panic("pq: Push of item already in heap")
	}
	h.items = append(h.items, item)
	h.prio = append(h.prio, priority)
	h.up(len(h.items) - 1)
}

// Update inserts item or changes its priority (either direction).
func (h *IndexedHeap) Update(item int, priority float64) {
	i, ok := h.lookup(item)
	if !ok {
		h.Push(item, priority)
		return
	}
	old := h.prio[i]
	h.prio[i] = priority
	if priority < old {
		h.up(i)
	} else if priority > old {
		h.down(i)
	}
}

// Peek returns the minimum item without removing it. It panics on an empty
// heap.
func (h *IndexedHeap) Peek() (item int, priority float64) {
	if len(h.items) == 0 {
		panic("pq: Peek of empty heap")
	}
	return h.items[0], h.prio[0]
}

// Pop removes and returns the item with the smallest priority. It panics on
// an empty heap.
func (h *IndexedHeap) Pop() (item int, priority float64) {
	if len(h.items) == 0 {
		panic("pq: Pop from empty heap")
	}
	item, priority = h.items[0], h.prio[0]
	h.clearPos(item)
	last := len(h.items) - 1
	h.items[0], h.prio[0] = h.items[last], h.prio[last]
	h.items = h.items[:last]
	h.prio = h.prio[:last]
	if last > 0 {
		h.down(0)
	}
	return item, priority
}

// up sifts the item at slot i toward the root through a hole: each parent it
// passes moves down one level, and every moved item's position is written
// once. A swap per level would write two positions per level, and in a
// dense heap each write is a lookup in the paged index.
func (h *IndexedHeap) up(i int) {
	item, p := h.items[i], h.prio[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h.prio[parent] <= p {
			break
		}
		h.place(i, h.items[parent], h.prio[parent])
		i = parent
	}
	h.place(i, item, p)
}

// down sifts the item at slot i toward the leaves the same way, moving the
// smaller child up one level at each step.
func (h *IndexedHeap) down(i int) {
	item, p := h.items[i], h.prio[i]
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest, sp := i, p
		if l < n && h.prio[l] < sp {
			smallest, sp = l, h.prio[l]
		}
		if r < n && h.prio[r] < sp {
			smallest, sp = r, h.prio[r]
		}
		if smallest == i {
			break
		}
		h.place(i, h.items[smallest], sp)
		i = smallest
	}
	h.place(i, item, p)
}

// place stores item with priority p at heap slot i and records its position.
func (h *IndexedHeap) place(i, item int, p float64) {
	h.items[i], h.prio[i] = item, p
	h.setPos(item, i)
}

// Heap is a plain binary min-heap of arbitrary values keyed by float64
// priorities. Duplicate values are allowed.
type Heap[T any] struct {
	vals []T
	prio []float64
}

// NewHeap returns an empty heap with capacity hint n.
func NewHeap[T any](n int) *Heap[T] {
	return &Heap[T]{vals: make([]T, 0, n), prio: make([]float64, 0, n)}
}

// Len returns the number of items in the heap.
func (h *Heap[T]) Len() int { return len(h.vals) }

// Reset empties the heap while retaining its allocated capacity. Values of
// pointer-bearing types stay referenced by the backing array until
// overwritten by later pushes.
func (h *Heap[T]) Reset() {
	h.vals = h.vals[:0]
	h.prio = h.prio[:0]
}

// Push inserts v with the given priority.
func (h *Heap[T]) Push(v T, priority float64) {
	h.vals = append(h.vals, v)
	h.prio = append(h.prio, priority)
	i := len(h.vals) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.prio[parent] <= h.prio[i] {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// Pop removes and returns the value with the smallest priority.
func (h *Heap[T]) Pop() (v T, priority float64) {
	if len(h.vals) == 0 {
		panic("pq: Pop from empty heap")
	}
	v, priority = h.vals[0], h.prio[0]
	last := len(h.vals) - 1
	h.swap(0, last)
	h.vals = h.vals[:last]
	h.prio = h.prio[:last]
	i := 0
	n := last
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.prio[l] < h.prio[smallest] {
			smallest = l
		}
		if r < n && h.prio[r] < h.prio[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.swap(i, smallest)
		i = smallest
	}
	return v, priority
}

// Peek returns the minimum value without removing it.
func (h *Heap[T]) Peek() (v T, priority float64) {
	if len(h.vals) == 0 {
		panic("pq: Peek of empty heap")
	}
	return h.vals[0], h.prio[0]
}

func (h *Heap[T]) swap(i, j int) {
	h.vals[i], h.vals[j] = h.vals[j], h.vals[i]
	h.prio[i], h.prio[j] = h.prio[j], h.prio[i]
}
