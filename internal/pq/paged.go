package pq

// pageBits sets the page size of Paged: 1<<10 elements per page.
const (
	pageBits = 10
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// Paged is a fixed-length array of T stored in pages of pageSize elements,
// each allocated when an element in it is first written. Reading an element
// of a page never written returns T's zero value, so callers encode "absent"
// or "unvisited" as the zero value.
//
// It backs the dense position index of IndexedHeap and the dense bookkeeping
// of package search. A flat array over a large state space would cost its
// full size on every construction: the Go runtime zeroes a reused heap span
// in full, so only a process's first allocation of fresh memory gets its
// untouched pages for free. A paged array costs one pointer per page plus
// the pages a search actually touches.
type Paged[T any] struct {
	pages []*[pageSize]T
}

// NewPaged returns a Paged array of n elements, all reading as zero.
func NewPaged[T any](n int) Paged[T] {
	return Paged[T]{pages: make([]*[pageSize]T, (n+pageMask)>>pageBits)}
}

// Get returns element i, or T's zero value when its page was never written.
func (a *Paged[T]) Get(i int) (v T) {
	if p := a.pages[i>>pageBits]; p != nil {
		v = p[i&pageMask]
	}
	return v
}

// Set stores v at element i, allocating its page on first use.
func (a *Paged[T]) Set(i int, v T) {
	p := &a.pages[i>>pageBits]
	if *p == nil {
		*p = new([pageSize]T)
	}
	(*p)[i&pageMask] = v
}
