package strtrie

import (
	"fmt"
	"testing"
)

// Allocation pins for the byte-string instantiation's update paths. The
// engine's budgets (internal/core/alloc_test.go) apply unchanged; the
// byte-string trie adds exactly one allocation per operation for the
// key's bit encoding, and an insert one more for the joining internal
// node's label (a Bitstring prefix owns its words). New nodes are born
// with a nil info field, so none carries an Unflag of its own.
const (
	// overwriteAllocBudget: key encoding, fresh leaf, Flag descriptor,
	// unflag-CAS Unflag.
	overwriteAllocBudget = 4
	// insertAllocBudget: key encoding, fresh leaf, copy of the displaced
	// leaf, joining internal node and its label, Flag descriptor,
	// unflag-CAS Unflag.
	insertAllocBudget = 7
	// deleteAllocBudget: key encoding, Flag descriptor, unflag-CAS
	// Unflag.
	deleteAllocBudget = 3
)

func TestUpdateAllocationBudgets(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 256; i++ {
		tr.Store([]byte(fmt.Sprintf("key-%03d", i)), i)
	}
	key := []byte("key-100")
	if n := testing.AllocsPerRun(500, func() { tr.Store(key, 5) }); n > overwriteAllocBudget {
		t.Errorf("uncontended overwrite allocates %v objects, budget %d", n, overwriteAllocBudget)
	}

	fresh := make([][]byte, 501)
	for i := range fresh {
		fresh[i] = []byte(fmt.Sprintf("new-%04d", i))
	}
	i := 0
	if n := testing.AllocsPerRun(500, func() {
		if !tr.InsertValue(fresh[i], i) {
			t.Fatal("insert failed")
		}
		i++
	}); n > insertAllocBudget {
		t.Errorf("uncontended insert allocates %v objects, budget %d", n, insertAllocBudget)
	}
	i = 0
	if n := testing.AllocsPerRun(500, func() {
		if !tr.Delete(fresh[i]) {
			t.Fatal("delete failed")
		}
		i++
	}); n > deleteAllocBudget {
		t.Errorf("uncontended delete allocates %v objects, budget %d", n, deleteAllocBudget)
	}
}
