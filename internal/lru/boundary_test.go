package lru

import (
	"fmt"
	"testing"
)

// Both caches (api.ResponseCache and the RAM tier of openbox's region store)
// derive their eviction counters from Add's evicted flag, so the flag has to
// be exact at the capacity boundaries — an over-report would show phantom
// churn in /stats, an under-report would hide real thrash from the
// benchmark trajectory.

func TestCapacityZeroIsUnbounded(t *testing.T) {
	// Capacity 0 means unbounded, not "evict everything": the flag must
	// stay false forever and nothing may be dropped.
	c := New[int](0)
	for i := 0; i < 1000; i++ {
		kept, inserted, evicted := c.Add(fmt.Sprintf("k%d", i), i)
		if !inserted || evicted || kept != i {
			t.Fatalf("Add #%d = (%d, %v, %v), want clean insert", i, kept, inserted, evicted)
		}
	}
	if c.Len() != 1000 {
		t.Fatalf("len %d, want 1000", c.Len())
	}
}

func TestCapacityOneEvictsExactlyOncePerDisplacement(t *testing.T) {
	c := New[int](1)
	if _, _, evicted := c.Add("a", 1); evicted {
		t.Fatal("first insert into empty capacity-1 cache evicted")
	}
	evictions := 0
	for i := 0; i < 10; i++ {
		_, inserted, evicted := c.Add(fmt.Sprintf("k%d", i), i)
		if !inserted {
			t.Fatalf("fresh key %d not inserted", i)
		}
		if evicted {
			evictions++
		}
		if c.Len() != 1 {
			t.Fatalf("len %d after insert %d, want 1", c.Len(), i)
		}
	}
	// Every one of the 10 fresh inserts displaced the single incumbent.
	if evictions != 10 {
		t.Fatalf("evictions = %d, want 10", evictions)
	}
}

func TestDuplicateAddNeverEvicts(t *testing.T) {
	// Re-adding the resident key at capacity must not count as churn.
	c := New[int](1)
	c.Add("k", 1)
	for i := 0; i < 5; i++ {
		kept, inserted, evicted := c.Add("k", 100+i)
		if inserted || evicted || kept != 1 {
			t.Fatalf("dup Add = (%d, %v, %v), want incumbent and no eviction", kept, inserted, evicted)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("len %d, want 1", c.Len())
	}
}

func TestReinsertAfterEvictIsAFreshInsert(t *testing.T) {
	// a evicted by b, then a returns: it must re-enter as a new insert
	// (with the new value) and evict b in turn.
	c := New[int](1)
	c.Add("a", 1)
	if _, _, evicted := c.Add("b", 2); !evicted {
		t.Fatal("b did not evict a")
	}
	kept, inserted, evicted := c.Add("a", 3)
	if !inserted || !evicted || kept != 3 {
		t.Fatalf("re-insert after evict = (%d, %v, %v), want fresh insert evicting b", kept, inserted, evicted)
	}
	if v, ok := c.Get("a"); !ok || v != 3 {
		t.Fatalf("a = (%d, %v), want the re-inserted value 3", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived a's re-insert")
	}
}

func TestEvictionCountMatchesDisplacements(t *testing.T) {
	// Counter monotonicity at an arbitrary boundary: with capacity c and n
	// distinct inserts, evictions must equal max(0, n-c) exactly.
	for _, capacity := range []int{1, 2, 3, 7} {
		for _, n := range []int{0, 1, 3, 7, 8, 20} {
			c := New[int](capacity)
			evictions, prev := 0, 0
			for i := 0; i < n; i++ {
				if _, _, evicted := c.Add(fmt.Sprintf("k%d", i), i); evicted {
					evictions++
				}
				if evictions < prev {
					t.Fatalf("cap=%d: eviction count went backwards", capacity)
				}
				prev = evictions
			}
			want := n - capacity
			if want < 0 {
				want = 0
			}
			if evictions != want {
				t.Fatalf("cap=%d n=%d: evictions = %d, want %d", capacity, n, evictions, want)
			}
			wantLen := n
			if wantLen > capacity {
				wantLen = capacity
			}
			if c.Len() != wantLen {
				t.Fatalf("cap=%d n=%d: len = %d, want %d", capacity, n, c.Len(), wantLen)
			}
		}
	}
}
