package core

import (
	"math"
	"runtime"
	"testing"
)

// Allocation regression pins for the allocation-lean update protocol.
// The read path must be allocation-free outright; the update paths get a
// fixed budget derived from the nodes an update must create (each a
// distinct heap object by the no-ABA rule) plus the descriptor and the
// one-word Unflag of the final unflag CAS. New nodes are born with a nil
// info field, so they carry no Unflag of their own. If one of these
// tests starts failing, garbage crept back into a hot path — see
// DESIGN.md before raising a budget.

const (
	// insertAllocBudget: fresh leaf, copy of the displaced leaf, joining
	// internal node, the Flag descriptor, and the Unflag of the unflag
	// CAS.
	insertAllocBudget = 5
	// overwriteAllocBudget: fresh leaf, the Flag descriptor, and the
	// unflag-CAS Unflag.
	overwriteAllocBudget = 3
	// deleteAllocBudget: the Flag descriptor and the unflag-CAS Unflag
	// (the sibling is re-linked, not rebuilt).
	deleteAllocBudget = 2

	// overwriteBytesBudget pins the bytes of an overwriting Store on
	// Trie[[]byte] at width 59, the server's instantiation: a 112 B leaf,
	// a 160 B descriptor and an 8 B Unflag.
	overwriteBytesBudget = 280

	// The span-4 (k-ary) budgets. A wide internal node costs one extra
	// allocation (its 16-slot child array), and the slot-oriented paths
	// rebuild a node where the binary trie re-links: an insert is either
	// a slot fill (parent copy: node + ext; fresh leaf; descriptor +
	// final Unflag = 5) or a leaf displacement (binary shape + ext on
	// the joining node = 6); a delete is either a contraction (2, as
	// binary) or a slot clear (parent copy + desc + Unflag = 4). The pins
	// take each path's worst case; depth-per-level is what the wider
	// nodes buy. See DESIGN.md §11 for the full table.
	karyInsertAllocBudget = 6
	karyDeleteAllocBudget = 4
)

func TestContainsIsAllocationFree(t *testing.T) {
	tr, err := New[struct{}](20)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 1024; k++ {
		tr.Insert(k)
	}
	if n := testing.AllocsPerRun(500, func() {
		if !tr.Contains(512) {
			t.Fatal("Contains(512) missed")
		}
		if tr.Contains(4096) {
			t.Fatal("Contains(4096) false positive")
		}
	}); n != 0 {
		t.Errorf("Contains allocates %v objects per call, want 0", n)
	}
}

// TestLoadIsAllocationFree pins the headline win of the generic value
// layer: Trie[int] stores ints unboxed in the leaf, so Load involves no
// interface conversion — zero allocations on hit and miss alike.
func TestLoadIsAllocationFree(t *testing.T) {
	tr, err := New[int](20)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 1024; k++ {
		tr.Store(k, int(k)+100000)
	}
	if n := testing.AllocsPerRun(500, func() {
		if v, ok := tr.Load(512); !ok || v != 100512 {
			t.Fatal("Load(512) wrong")
		}
		if _, ok := tr.Load(4096); ok {
			t.Fatal("Load(4096) false positive")
		}
	}); n != 0 {
		t.Errorf("Load allocates %v objects per call, want 0", n)
	}
}

func TestUpdateAllocationBudgets(t *testing.T) {
	tr, err := New[int](30)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 1024; k++ {
		tr.Store(k, int(k))
	}

	k := uint64(1 << 20)
	if n := testing.AllocsPerRun(500, func() {
		if !tr.Store(k, 100000+int(k)) {
			t.Fatal("insert Store failed")
		}
		k++
	}); n > insertAllocBudget {
		t.Errorf("uncontended insert allocates %v objects, budget %d", n, insertAllocBudget)
	}

	if n := testing.AllocsPerRun(500, func() {
		if !tr.Store(512, 100000) {
			t.Fatal("overwrite Store failed")
		}
	}); n > overwriteAllocBudget {
		t.Errorf("uncontended overwrite allocates %v objects, budget %d", n, overwriteAllocBudget)
	}

	d := uint64(1 << 20)
	if n := testing.AllocsPerRun(500, func() {
		if !tr.Delete(d) {
			t.Fatal("Delete failed")
		}
		d++
	}); n > deleteAllocBudget {
		t.Errorf("uncontended delete allocates %v objects, budget %d", n, deleteAllocBudget)
	}
}

// TestOverwriteBytesBudget pins the bytes, not just the objects, of the
// hottest server write: SET on an existing key is an overwriting Store
// on Trie[[]byte] at width 59. A descriptor-sized Unflag creeping back,
// or a fatter leaf, shows up here even when the object count holds.
// TotalAlloc is process-wide, so a stray runtime or test-framework
// allocation can land in a round; the pin takes the quietest of a few
// rounds (noise only ever adds bytes).
func TestOverwriteBytesBudget(t *testing.T) {
	tr, err := New[[]byte](59)
	if err != nil {
		t.Fatal(err)
	}
	val := []byte("value")
	for k := uint64(0); k < 1024; k++ {
		tr.Store(k*7919, val)
	}
	const runs = 1000
	tr.Store(512*7919, val) // warm up
	best := math.Inf(1)
	for round := 0; round < 5; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if !tr.Store(512*7919, val) {
				t.Fatal("overwrite Store failed")
			}
		}
		runtime.ReadMemStats(&after)
		best = min(best, float64(after.TotalAlloc-before.TotalAlloc)/runs)
	}
	if best > overwriteBytesBudget {
		t.Errorf("uncontended overwrite allocates %.1f B, budget %d B", best, overwriteBytesBudget)
	}
}

// TestKaryAllocationBudgets is the span-4 twin: the read path must stay
// allocation-free (the k-ary win is depth, never read-path garbage), and
// the update paths get the wider budgets documented above.
func TestKaryAllocationBudgets(t *testing.T) {
	tr, err := New(30, WithSpan[int](4))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 1024; k++ {
		tr.Store(k, int(k))
	}

	if n := testing.AllocsPerRun(500, func() {
		if v, ok := tr.Load(512); !ok || v != 512 {
			t.Fatal("Load(512) wrong")
		}
		if tr.Contains(1 << 25) {
			t.Fatal("Contains false positive")
		}
	}); n != 0 {
		t.Errorf("span-4 read path allocates %v objects per call, want 0", n)
	}

	k := uint64(1 << 20)
	if n := testing.AllocsPerRun(500, func() {
		if !tr.Store(k, 100000+int(k)) {
			t.Fatal("insert Store failed")
		}
		k++
	}); n > karyInsertAllocBudget {
		t.Errorf("uncontended span-4 insert allocates %v objects, budget %d", n, karyInsertAllocBudget)
	}

	if n := testing.AllocsPerRun(500, func() {
		if !tr.Store(512, 100000) {
			t.Fatal("overwrite Store failed")
		}
	}); n > overwriteAllocBudget {
		t.Errorf("uncontended span-4 overwrite allocates %v objects, budget %d", n, overwriteAllocBudget)
	}

	d := uint64(1 << 20)
	if n := testing.AllocsPerRun(500, func() {
		if !tr.Delete(d) {
			t.Fatal("Delete failed")
		}
		d++
	}); n > karyDeleteAllocBudget {
		t.Errorf("uncontended span-4 delete allocates %v objects, budget %d", n, karyDeleteAllocBudget)
	}
}

// (TestTryDeleteRootChildDefensive, a white-box test of the engine's
// tryDelete, lives in internal/engine.)
