package pq

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestIndexedHeapSortsRandomInput(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(200)
		h := NewIndexedHeap(n)
		want := make([]float64, n)
		for i := 0; i < n; i++ {
			p := r.Uniform(-100, 100)
			h.Push(i, p)
			want[i] = p
		}
		sort.Float64s(want)
		for i := 0; i < n; i++ {
			_, p := h.Pop()
			if p != want[i] {
				return false
			}
		}
		return h.Len() == 0
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexedHeapDecreaseKey(t *testing.T) {
	h := NewIndexedHeap(4)
	h.Push(1, 10)
	h.Push(2, 20)
	h.Push(3, 30)
	h.Update(3, 1) // decrease
	if item, p := h.Pop(); item != 3 || p != 1 {
		t.Fatalf("Pop = (%d, %v), want (3, 1)", item, p)
	}
	h.Update(1, 25) // increase
	if item, _ := h.Pop(); item != 2 {
		t.Fatalf("Pop = %d, want 2", item)
	}
}

func TestIndexedHeapUpdateInsertsWhenAbsent(t *testing.T) {
	h := NewIndexedHeap(2)
	h.Update(7, 3.5)
	if !h.Contains(7) {
		t.Fatal("Update did not insert")
	}
	if p, ok := h.Priority(7); !ok || p != 3.5 {
		t.Fatalf("Priority = (%v, %v)", p, ok)
	}
	if _, ok := h.Priority(8); ok {
		t.Fatal("Priority reported a missing item")
	}
}

func TestIndexedHeapPushDuplicatePanics(t *testing.T) {
	h := NewIndexedHeap(2)
	h.Push(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Push did not panic")
		}
	}()
	h.Push(1, 2)
}

func TestIndexedHeapPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on empty heap did not panic")
		}
	}()
	NewIndexedHeap(1).Pop()
}

func TestIndexedHeapMixedOpsProperty(t *testing.T) {
	// Interleave pushes, updates, and pops; the popped sequence must be
	// non-decreasing as long as no later update lowers below a prior pop.
	// The dense heap's universe spans several index pages with a partial
	// last page, and its item ids are scattered across all of them.
	const universe = 5*pageSize + 37
	for _, dense := range []bool{false, true} {
		if err := quick.Check(func(seed int64) bool {
			r := rng.New(seed)
			h, item := NewIndexedHeap(8), func(k int) int { return k }
			if dense {
				// 7919 is prime and does not divide universe, so the first
				// universe values of k map to distinct items.
				h, item = NewIndexedHeapDense(universe), func(k int) int { return k * 7919 % universe }
			}
			present := map[int]bool{}
			next := 0
			lastPopped := -1e18
			for op := 0; op < 500; op++ {
				switch {
				case h.Len() == 0 || r.Float64() < 0.5:
					// Priorities only ever >= lastPopped keeps the
					// invariant testable.
					id := item(next)
					if h.Contains(id) {
						return false
					}
					h.Push(id, lastPopped+r.Uniform(0, 10))
					present[id] = true
					next++
				case r.Float64() < 0.3:
					// Raise a random present item.
					for id := range present {
						if p, ok := h.Priority(id); ok {
							h.Update(id, p+r.Uniform(0, 5))
						}
						break
					}
				default:
					id, p := h.Pop()
					if !present[id] || h.Contains(id) {
						return false
					}
					delete(present, id)
					if p < lastPopped-1e-9 {
						return false
					}
					lastPopped = p
				}
			}
			return h.Len() == len(present)
		}, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatalf("dense=%v: %v", dense, err)
		}
	}
}

func TestGenericHeapOrdering(t *testing.T) {
	h := NewHeap[string](4)
	h.Push("c", 3)
	h.Push("a", 1)
	h.Push("b", 2)
	if v, p := h.Peek(); v != "a" || p != 1 {
		t.Fatalf("Peek = (%q, %v)", v, p)
	}
	var got []string
	for h.Len() > 0 {
		v, _ := h.Pop()
		got = append(got, v)
	}
	if got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("order = %v", got)
	}
}

func TestGenericHeapDuplicatesAllowed(t *testing.T) {
	h := NewHeap[int](4)
	h.Push(1, 5)
	h.Push(1, 5)
	h.Push(1, 1)
	if h.Len() != 3 {
		t.Fatalf("Len = %d", h.Len())
	}
	if _, p := h.Pop(); p != 1 {
		t.Fatalf("min priority = %v", p)
	}
}

func TestGenericHeapRandomProperty(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(300)
		h := NewHeap[int](n)
		want := make([]float64, n)
		for i := 0; i < n; i++ {
			p := r.Uniform(0, 1)
			h.Push(i, p)
			want[i] = p
		}
		sort.Float64s(want)
		for i := 0; i < n; i++ {
			if _, p := h.Pop(); p != want[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexedHeapReset(t *testing.T) {
	for _, dense := range []bool{false, true} {
		var h *IndexedHeap
		if dense {
			h = NewIndexedHeapDense(64)
		} else {
			h = NewIndexedHeap(8)
		}
		for i := 0; i < 32; i++ {
			h.Push(i, float64(63-i))
		}
		h.Reset()
		if h.Len() != 0 {
			t.Fatalf("dense=%v: Len after Reset = %d", dense, h.Len())
		}
		for i := 0; i < 32; i++ {
			if h.Contains(i) {
				t.Fatalf("dense=%v: item %d still present after Reset", dense, i)
			}
		}
		// The heap must be fully usable again, including re-pushing the
		// same items, and stay allocation-free within retained capacity.
		if allocs := testing.AllocsPerRun(100, func() {
			for i := 0; i < 32; i++ {
				h.Push(i, float64(i%7))
			}
			for h.Len() > 0 {
				h.Pop()
			}
		}); dense && allocs != 0 {
			t.Errorf("dense=%v: reused heap allocates %v per episode", dense, allocs)
		}
		h.Push(3, 1.5)
		h.Push(1, 0.5)
		if item, _ := h.Pop(); item != 1 {
			t.Fatalf("dense=%v: Pop after Reset = %d, want 1", dense, item)
		}
	}
}

func TestGenericHeapReset(t *testing.T) {
	h := NewHeap[string](4)
	h.Push("b", 2)
	h.Push("a", 1)
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len after Reset = %d", h.Len())
	}
	h.Push("z", 3)
	h.Push("y", 1)
	if v, _ := h.Pop(); v != "y" {
		t.Fatalf("Pop after Reset = %q, want %q", v, "y")
	}
}
