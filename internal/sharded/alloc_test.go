package sharded

import "testing"

// Allocation pins for the sharded read path: routing is pure integer
// arithmetic and each shard inherits the fixed-width trie's wait-free,
// allocation-free Contains/Load, so the sharded front-end must add
// nothing. The public registry pin (alloc_test.go at the repo root)
// checks the Set surface; this white-box pin also covers Load and the
// multi-shard routing specifically.
func TestShardedReadPathDoesNotAllocate(t *testing.T) {
	tr, err := New[uint64](16, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Spread keys over every shard so the pin exercises routing, not just
	// shard 0.
	for k := uint64(0); k < 1<<12; k += 3 {
		tr.Store(k, k)
	}
	span := uint64(1) << (16 - tr.ShardBits())
	if n := testing.AllocsPerRun(500, func() {
		if !tr.Contains(3) {
			t.Fatal("Contains(3) missed")
		}
		if tr.Contains(5) {
			t.Fatal("Contains(5) false positive")
		}
		if v, ok := tr.Load(span * 2); span*2%3 == 0 && (!ok || v != span*2) {
			t.Fatal("Load across shards wrong")
		}
		if _, ok := tr.Load(1 << 16); ok {
			t.Fatal("out-of-range Load must miss")
		}
	}); n != 0 {
		t.Errorf("sharded Contains/Load allocate %v objects per call, want 0", n)
	}
}

// TestShardedUpdateAllocationBudgets: routing adds nothing to the
// engine's update budgets (internal/core/alloc_test.go), so each shard
// allocates exactly what the fixed-width trie does.
func TestShardedUpdateAllocationBudgets(t *testing.T) {
	const (
		insertAllocBudget    = 5 // fresh leaf, displaced-leaf copy, joining node, descriptor, Unflag
		overwriteAllocBudget = 3 // fresh leaf, descriptor, Unflag
		deleteAllocBudget    = 2 // descriptor, Unflag
	)
	tr, err := New[uint64](16, 8)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 1<<12; k += 3 {
		tr.Store(k, k)
	}
	if n := testing.AllocsPerRun(500, func() { tr.Store(3, 4) }); n > overwriteAllocBudget {
		t.Errorf("sharded overwrite allocates %v objects, budget %d", n, overwriteAllocBudget)
	}
	k := uint64(1)
	if n := testing.AllocsPerRun(500, func() {
		if !tr.Store(k, k) {
			t.Fatal("insert Store failed")
		}
		k += 3
	}); n > insertAllocBudget {
		t.Errorf("sharded insert allocates %v objects, budget %d", n, insertAllocBudget)
	}
	k = 1
	if n := testing.AllocsPerRun(500, func() {
		if !tr.Delete(k) {
			t.Fatal("Delete failed")
		}
		k += 3
	}); n > deleteAllocBudget {
		t.Errorf("sharded delete allocates %v objects, budget %d", n, deleteAllocBudget)
	}
}
