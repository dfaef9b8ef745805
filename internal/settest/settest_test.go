package settest

import (
	"sync"
	"testing"

	"nbtrie/internal/linearizable"
)

// lockedSet is a trivially correct reference implementation: the kit must
// pass against it.
type lockedSet struct {
	mu sync.Mutex
	m  map[uint64]bool
}

func newLockedSet(uint64) Set { return &lockedSet{m: make(map[uint64]bool)} }

func (s *lockedSet) Insert(k uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m[k] {
		return false
	}
	s.m[k] = true
	return true
}

func (s *lockedSet) Delete(k uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.m[k] {
		return false
	}
	delete(s.m, k)
	return true
}

func (s *lockedSet) Contains(k uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[k]
}

func (s *lockedSet) Replace(old, new uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.m[old] || s.m[new] || old == new {
		return false
	}
	delete(s.m, old)
	s.m[new] = true
	return true
}

func TestKitAgainstLockedReference(t *testing.T) {
	Run(t, newLockedSet)
}

// tornSet implements Replace non-atomically: delete, then insert. Between
// the two it parks on a channel until released, so a test can read inside
// the torn window on every run. The linearizability machinery must catch
// the resulting torn reads; this guards the kit itself against vacuity.
type tornSet struct {
	lockedSet
	parked  chan struct{} // receives once the old key is gone
	release chan struct{} // closed to let the insert proceed
}

func (s *tornSet) Replace(old, new uint64) bool {
	if !s.Delete(old) {
		return false
	}
	s.parked <- struct{}{}
	<-s.release
	if !s.Insert(new) {
		s.Insert(old) // crude rollback; still observably torn
		return false
	}
	return true
}

func TestKitDetectsTornReplace(t *testing.T) {
	s := &tornSet{
		lockedSet: lockedSet{m: map[uint64]bool{1: true}},
		parked:    make(chan struct{}),
		release:   make(chan struct{}),
	}
	// Key 1 is present from the start; one worker replaces 1->2 while
	// the reader, parked inside the torn window, sees both keys absent.
	rec := linearizable.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		rec.Record(linearizable.Replace, 1, 2, func() bool { return s.Replace(1, 2) })
	}()
	<-s.parked
	for _, k := range []uint64{1, 2} {
		if rec.Record(linearizable.Contains, k, 0, func() bool { return s.Contains(k) }) {
			t.Fatalf("Contains(%d) inside the torn window = true, want false", k)
		}
	}
	close(s.release)
	<-done
	h := append([]linearizable.Op{{Kind: linearizable.Insert, Key: 1, Result: true, Start: -2, End: -1}}, rec.History()...)
	if linearizable.Check(h) {
		t.Fatalf("torn Replace passed the linearizability check: %v", h)
	}
}

// lockedMap is the trivially correct reference for the map battery.
type lockedMap struct {
	mu sync.Mutex
	m  map[uint64]uint64
}

func newLockedMap(uint64) Map { return &lockedMap{m: make(map[uint64]uint64)} }

func (s *lockedMap) Load(k uint64) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[k]
	return v, ok
}

func (s *lockedMap) Store(k, v uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[k] = v
	return true
}

func (s *lockedMap) LoadOrStore(k, v uint64) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.m[k]; ok {
		return old, true
	}
	s.m[k] = v
	return v, false
}

func (s *lockedMap) Delete(k uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[k]; !ok {
		return false
	}
	delete(s.m, k)
	return true
}

func (s *lockedMap) CompareAndSwap(k, old, new uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.m[k]; !ok || v != old {
		return false
	}
	s.m[k] = new
	return true
}

func (s *lockedMap) CompareAndDelete(k, old uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.m[k]; !ok || v != old {
		return false
	}
	delete(s.m, k)
	return true
}

func (s *lockedMap) ReplaceKey(old, new uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[old]
	if !ok {
		return false
	}
	if _, clash := s.m[new]; clash || old == new {
		return false
	}
	delete(s.m, old)
	s.m[new] = v
	return true
}

func TestMapKitAgainstLockedReference(t *testing.T) {
	RunMap(t, newLockedMap)
}
