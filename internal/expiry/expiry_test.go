package expiry

import (
	"bytes"
	"math"
	"sync"
	"testing"
)

func newIndex(t testing.TB) *Index {
	t.Helper()
	x, err := New(16, 4)
	if err != nil {
		t.Fatalf("New(16, 4): %v", err)
	}
	return x
}

func TestSetLookupClear(t *testing.T) {
	x := newIndex(t)
	if _, ok := x.Lookup(7); ok {
		t.Fatal("Lookup on empty index")
	}
	if e := x.Set(7, 1000); e.Value != nil || e.Arming != 0 || x.Len() != 0 {
		t.Fatalf("Set on an absent key = %+v, Len %d; want nothing armed", e, x.Len())
	}
	x.Store(7, []byte("v"), 0)
	e := x.Set(7, 1000)
	if e.DeadlineMS() != 1000 || string(e.Value) != "v" {
		t.Fatalf("Set returned %+v", e)
	}
	got, ok := x.Lookup(7)
	if !ok || !got.same(e) {
		t.Fatalf("Lookup = %+v, %v; want %+v", got, ok, e)
	}
	// Re-arm: the new arming replaces the old, old wake node dropped.
	e2 := x.Set(7, 2000)
	if got, _ := x.Lookup(7); !got.same(e2) {
		t.Fatalf("Lookup after re-arm = %+v, want %+v", got, e2)
	}
	if d, ok := x.Earliest(); !ok || d != 2000 || x.Len() != 1 {
		t.Fatalf("Earliest after re-arm = %d, %v, Len %d (stale node survived?)", d, ok, x.Len())
	}
	if e := x.Set(7, 0); e.Arming != 0 || string(e.Value) != "v" {
		t.Fatalf("Set(k, 0) = %+v; want the value with no TTL", e)
	}
	if _, ok := x.Earliest(); ok || x.Len() != 0 {
		t.Fatalf("wake node survived dropping the TTL (Len %d)", x.Len())
	}
}

// TestStoreDropsWake: SET discards a TTL, SETEX replaces it, DEL removes
// it — each with its wake node, so the armed count stays exact.
func TestStoreDropsWake(t *testing.T) {
	x := newIndex(t)
	x.Store(1, []byte("a"), 500)
	x.Store(1, []byte("b"), 0)
	if e, _ := x.Lookup(1); e.Arming != 0 || string(e.Value) != "b" || x.Len() != 0 {
		t.Fatalf("after SET over SETEX: %+v, Len %d", e, x.Len())
	}
	x.Store(1, []byte("c"), 500)
	x.Store(1, []byte("d"), 900)
	if d, ok := x.Earliest(); !ok || d != 900 || x.Len() != 1 {
		t.Fatalf("after SETEX over SETEX: Earliest %d, %v, Len %d", d, ok, x.Len())
	}
	prev, ok := x.Delete(1)
	if !ok || string(prev.Value) != "d" || prev.DeadlineMS() != 900 || x.Len() != 0 {
		t.Fatalf("Delete = %+v, %v, Len %d", prev, ok, x.Len())
	}
	if _, ok := x.Delete(1); ok {
		t.Fatal("second Delete succeeded")
	}
}

// TestExpireOnlyWhileLive: Expire re-arms or disarms a key that is
// present and not due; a due key is left for the purge and reported.
func TestExpireOnlyWhileLive(t *testing.T) {
	x := newIndex(t)
	if _, live := x.Expire(1, 500, 100); live || x.Len() != 0 {
		t.Fatal("Expire on an absent key applied")
	}
	x.Store(1, []byte("v"), 200)
	if prev, live := x.Expire(1, 900, 100); !live || prev.DeadlineMS() != 200 {
		t.Fatalf("Expire before the deadline = %+v, %v", prev, live)
	}
	if e, _ := x.Lookup(1); e.DeadlineMS() != 900 {
		t.Fatalf("deadline after Expire = %d", e.DeadlineMS())
	}
	prev, live := x.Expire(1, 5000, 900) // due at now: too late
	if live || prev.DeadlineMS() != 900 {
		t.Fatalf("Expire on a due key = %+v, %v", prev, live)
	}
	if e, _ := x.Lookup(1); e.DeadlineMS() != 900 || x.Len() != 1 {
		t.Fatalf("refused Expire changed the key: %+v, Len %d", e, x.Len())
	}
	if prev, live := x.Expire(1, 0, 100); !live || prev.Arming == 0 {
		t.Fatalf("disarm = %+v, %v", prev, live)
	}
	// Disarming an unarmed key is live but leaves the leaf alone.
	before, _ := x.Lookup(1)
	if prev, live := x.Expire(1, 0, 100); !live || prev.Arming != 0 {
		t.Fatalf("second disarm = %+v, %v", prev, live)
	}
	if after, _ := x.Lookup(1); !after.same(before) || x.Len() != 0 {
		t.Fatalf("no-op disarm rewrote the key: %+v → %+v", before, after)
	}
}

func TestRemoveIsConditional(t *testing.T) {
	x := newIndex(t)
	x.Store(3, []byte("v"), 0)
	e1 := x.Set(3, 100)
	e2 := x.Set(3, 200) // e1 is now a stale identity
	if x.Remove(3, e1) {
		t.Fatal("Remove succeeded with a superseded arming")
	}
	// Same bytes, same deadline, fresh allocation: a racing re-SETEX the
	// purge must not eat.
	x.Store(3, []byte("v"), 200)
	if x.Remove(3, e2) {
		t.Fatal("Remove succeeded against a re-stored value")
	}
	e3, ok := x.Lookup(3)
	if !ok || !x.Remove(3, e3) {
		t.Fatal("Remove with the live entry failed")
	}
	if _, ok := x.Lookup(3); ok || x.Len() != 0 {
		t.Fatalf("key or wake node survived Remove (Len %d)", x.Len())
	}
}

func TestEarliestOrdering(t *testing.T) {
	x := newIndex(t)
	x.Store(1, nil, 500)
	x.Store(2, nil, 100)
	x.Store(3, nil, 900)
	if d, ok := x.Earliest(); !ok || d != 100 {
		t.Fatalf("Earliest = %d, %v; want 100", d, ok)
	}
	x.Set(2, 0)
	if d, ok := x.Earliest(); !ok || d != 500 {
		t.Fatalf("Earliest after clearing the min = %d, %v; want 500", d, ok)
	}
}

func TestClamping(t *testing.T) {
	x := newIndex(t)
	x.Store(1, nil, 0)
	x.Store(2, nil, 0)
	if e := x.Set(1, -50); e.DeadlineMS() != 1 {
		t.Fatalf("negative deadline clamped to %d, want 1", e.DeadlineMS())
	}
	if e := x.Set(2, math.MaxInt64); e.DeadlineMS() != MaxDeadlineMS {
		t.Fatalf("huge deadline clamped to %d, want %d", e.DeadlineMS(), MaxDeadlineMS)
	}
	if d, ok := x.Earliest(); !ok || d != 1 {
		t.Fatalf("Earliest = %d, %v", d, ok)
	}
}

// TestSetExhaustedMillisecond arms a key at a deadline whose seq slot
// space is already occupied — a mass restore or bulk EXPIREAT aimed at
// one deadline: arming must terminate by degrading to a neighboring
// millisecond instead of retrying the exhausted slot space forever.
// The lap bound is lowered and the colliding byDeadline nodes planted
// directly (a fresh index's seq counter starts at 0, so arming probes
// seqs 1, 2, 3, ...); exhausting the real 2^20-slot space exercises the
// identical loop at ~2M trie ops per case.
func TestSetExhaustedMillisecond(t *testing.T) {
	const lap = 8
	defer func(orig int) { setRetryLap = orig }(setRetryLap)
	setRetryLap = lap

	plant := func(t *testing.T, x *Index, d int64) {
		t.Helper()
		for seq := uint64(1); seq <= lap+1; seq++ {
			if !x.byDeadline.InsertValue(uint64(d)<<seqBits|seq, ^uint64(0)) {
				t.Fatalf("planting seq %d failed", seq)
			}
		}
	}

	t.Run("degrades later", func(t *testing.T) {
		x := newIndex(t)
		x.Store(9, nil, 0)
		const d = int64(5000)
		plant(t, x, d)
		e := x.Set(9, d)
		if e.DeadlineMS() != d+1 {
			t.Fatalf("Set on an exhausted millisecond landed at %d, want %d", e.DeadlineMS(), d+1)
		}
		if got, ok := x.Lookup(9); !ok || !got.same(e) {
			t.Fatalf("Lookup = %+v, %v; want %+v", got, ok, e)
		}
	})

	t.Run("walks earlier at the clamp ceiling", func(t *testing.T) {
		x := newIndex(t)
		x.Store(9, nil, 0)
		plant(t, x, MaxDeadlineMS)
		e := x.Set(9, math.MaxInt64) // clamps to MaxDeadlineMS, which is full
		if e.DeadlineMS() != MaxDeadlineMS-1 {
			t.Fatalf("Set at the exhausted ceiling landed at %d, want %d", e.DeadlineMS(), MaxDeadlineMS-1)
		}
	})
}

// purge is the Reap callback the server uses, minus the counting.
func purge(x *Index) func(k uint64, e Entry) bool {
	return func(k uint64, e Entry) bool { return x.Remove(k, e) }
}

func TestReap(t *testing.T) {
	x := newIndex(t)
	x.Store(10, []byte("a"), 100)
	x.Store(11, []byte("b"), 200)
	x.Store(12, []byte("c"), 200) // same millisecond: seq disambiguates
	x.Store(13, []byte("d"), 300)

	if n := x.Reap(50, purge(x)); n != 0 {
		t.Fatalf("Reap(50) purged %d", n)
	}
	// The limit is inclusive: everything due AT now expires too.
	if n := x.Reap(200, purge(x)); n != 3 {
		t.Fatalf("Reap(200) purged %d, want 3", n)
	}
	if x.Keys().Len() != 1 || !x.Keys().Contains(13) {
		t.Fatalf("keys after reap: %d", x.Keys().Len())
	}
	if d, ok := x.Earliest(); !ok || d != 300 {
		t.Fatalf("Earliest after reap = %d, %v", d, ok)
	}
	expired, passes := x.Stats()
	if expired != 0 { // Reap itself doesn't count; the server's purge calls NoteExpired
		t.Fatalf("expired = %d before any NoteExpired", expired)
	}
	if passes != 2 {
		t.Fatalf("passes = %d, want 2", passes)
	}
}

// TestReapSkipsRearmed: a stale wake node — its arming superseded, the
// node left behind the way a lost race would — must not purge the key:
// the leaf check detects the mismatch and discards the node only.
func TestReapSkipsRearmed(t *testing.T) {
	x := newIndex(t)
	x.Store(5, []byte("v"), 100)
	e1, _ := x.Lookup(5)
	x.Set(5, 99999)
	x.byDeadline.InsertValue(e1.Arming, 5)

	if n := x.Reap(200, purge(x)); n != 0 {
		t.Fatalf("Reap purged %d through a stale node", n)
	}
	if e, ok := x.Lookup(5); !ok || e.DeadlineMS() != 99999 {
		t.Fatalf("re-armed key disturbed: %+v, %v", e, ok)
	}
	// The stale node was discarded: the earliest deadline is the live one.
	if d, ok := x.Earliest(); !ok || d != 99999 || x.Len() != 1 {
		t.Fatalf("Earliest = %d, %v, Len %d; stale node survived the reap", d, ok, x.Len())
	}
}

// TestMoveCarriesArming: a rename moves the deadline inside the leaf,
// and the wake node follows it to the new key — within a shard and
// across shards.
func TestMoveCarriesArming(t *testing.T) {
	x := newIndex(t) // width 16, 4 shards: 0..16383 share shard 0
	for _, c := range []struct {
		from, to uint64
		atomic   bool
	}{{100, 200, true}, {200, 20000, false}} {
		if c.atomic != x.Keys().SameShard(c.from, c.to) {
			t.Fatalf("test premise broken for %d → %d", c.from, c.to)
		}
		if c.from == 100 {
			x.Store(100, []byte("v"), 700)
		}
		moved, err := x.Move(c.from, c.to, c.atomic)
		if !moved || err != nil {
			t.Fatalf("Move(%d, %d) = %v, %v", c.from, c.to, moved, err)
		}
		if _, ok := x.Lookup(c.from); ok {
			t.Fatalf("source %d survived the move", c.from)
		}
		e, ok := x.Lookup(c.to)
		if !ok || string(e.Value) != "v" || e.DeadlineMS() != 700 || x.Len() != 1 {
			t.Fatalf("destination %d = %+v, %v, Len %d", c.to, e, ok, x.Len())
		}
	}
	if n := x.Reap(700, purge(x)); n != 1 || x.Keys().Len() != 0 || x.Len() != 0 {
		t.Fatalf("Reap after the moves purged %d; keys %d, wake nodes %d", n, x.Keys().Len(), x.Len())
	}
}

func TestWakeSignalling(t *testing.T) {
	x := newIndex(t)
	x.Arm(5000) // reaper sleeping toward 5000
	x.Store(1, nil, 9000)
	select {
	case <-x.Wake():
		t.Fatal("later deadline woke the reaper")
	default:
	}
	x.Store(2, nil, 1000)
	select {
	case <-x.Wake():
	default:
		t.Fatal("earlier deadline did not wake the reaper")
	}
}

// TestConcurrentSetClearRemove hammers a few keys with every mutator from many
// goroutines; the invariant is convergence — at quiescence the wake
// nodes are exactly the armed keys — plus no panics/races under -race.
func TestConcurrentSetClearRemove(t *testing.T) {
	x := newIndex(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := uint64(i % 16)
				switch (g + i) % 6 {
				case 0:
					x.Store(k, []byte{byte(i)}, int64(1000+i))
				case 1:
					x.Store(k, []byte{byte(i)}, 0)
				case 2:
					x.Expire(k, int64(2000+i), 1500)
				case 3:
					x.Delete(k)
				case 4:
					if e, ok := x.Lookup(k); ok {
						x.Remove(k, e)
					}
				case 5:
					x.Move(k, k^1, true)
				}
			}
		}(g)
	}
	wg.Wait()
	armed := 0
	x.Keys().AscendKV(0, func(_ uint64, e Entry) bool {
		if e.Arming != 0 {
			armed++
		}
		return true
	})
	if x.Len() != armed {
		t.Fatalf("wake nodes %d, armed keys %d at quiescence", x.Len(), armed)
	}
	// One final reap far in the future purges every surviving arming.
	n := x.Reap(MaxDeadlineMS, purge(x))
	if n != armed || x.Len() != 0 {
		t.Fatalf("total reap purged %d of %d armed keys; Len = %d", n, armed, x.Len())
	}
	if _, ok := x.Earliest(); ok {
		t.Fatal("byDeadline nonempty after a total reap")
	}
}

// FuzzExpiryIndexOps drives a byte-coded op sequence against the index
// and a plain map oracle of key → {value, deadline}; after every op the
// views must agree on membership, values, deadlines, order (Earliest)
// and counts — the key count, and the wake-node count (INFO's
// keys_with_ttl) against the oracle's armed keys, which single-threaded
// must match exactly: no stale wake node may pile up.
func FuzzExpiryIndexOps(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x42})
	f.Add([]byte{0x10, 0x05, 0x11, 0x05, 0x30, 0x06})
	f.Add([]byte{0x00, 0xFF, 0x20, 0x00, 0x30, 0xFF, 0x00, 0x01})
	f.Add([]byte{0x04, 0x03, 0x05, 0x03, 0x06, 0x03, 0x07, 0x03, 0x23, 0x03})
	type binding struct {
		val      []byte
		deadline int64 // 0: no TTL
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		x, err := New(16, 4)
		if err != nil {
			t.Fatal(err)
		}
		oracle := map[uint64]binding{}
		check := func(op string) {
			if got, want := x.Keys().Len(), len(oracle); got != want {
				t.Fatalf("after %s: %d keys, oracle %d", op, got, want)
			}
			armed := 0
			var earliest int64 = math.MaxInt64
			for k, b := range oracle {
				e, ok := x.Lookup(k)
				if !ok || e.DeadlineMS() != b.deadline || !bytes.Equal(e.Value, b.val) {
					t.Fatalf("after %s: Lookup(%d) = %+v, %v; oracle %+v", op, k, e, ok, b)
				}
				if b.deadline != 0 {
					armed++
					earliest = min(earliest, b.deadline)
				}
			}
			if got := x.Len(); got != armed {
				t.Fatalf("after %s: %d wake nodes, oracle %d armed keys", op, got, armed)
			}
			d, ok := x.Earliest()
			if ok != (armed > 0) || (ok && d != earliest) {
				t.Fatalf("after %s: Earliest = %d, %v; oracle min %d of %d armed",
					op, d, ok, earliest, armed)
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			k := uint64(arg % 32)
			d := clampDeadline(int64(op/8) * int64(arg) * 7)
			val := []byte{op, arg}
			switch op % 8 {
			case 0: // arm if present (PEXPIREAT replay)
				x.Set(k, d)
				if b, ok := oracle[k]; ok {
					oracle[k] = binding{b.val, d}
				}
				check("set")
			case 1: // drop the TTL (PERSIST replay)
				x.Set(k, 0)
				if b, ok := oracle[k]; ok {
					oracle[k] = binding{b.val, 0}
				}
				check("clear")
			case 2: // conditional remove of the live entry
				if e, ok := x.Lookup(k); ok {
					if !x.Remove(k, e) {
						t.Fatalf("Remove(%d, live entry) failed unraced", k)
					}
					delete(oracle, k)
				}
				check("remove")
			case 3: // reap everything due by an arbitrary now
				now := int64(op/8) * int64(arg) * 5
				x.Reap(now, func(k uint64, e Entry) bool { return x.Remove(k, e) })
				for k, b := range oracle {
					if b.deadline != 0 && b.deadline <= now {
						delete(oracle, k)
					}
				}
				check("reap")
			case 4: // SET
				x.Store(k, val, 0)
				oracle[k] = binding{val, 0}
				check("store")
			case 5: // SETEX
				x.Store(k, val, d)
				oracle[k] = binding{val, d}
				check("store-ttl")
			case 6: // DEL
				_, ok := x.Delete(k)
				if _, want := oracle[k]; ok != want {
					t.Fatalf("Delete(%d) = %v, oracle had %v", k, ok, want)
				}
				delete(oracle, k)
				check("delete")
			case 7: // RENAME k → k+1 within one shard
				to := k + 1
				b, had := oracle[k]
				_, dst := oracle[to]
				moved, err := x.Move(k, to, true)
				if err != nil || moved != (had && !dst) {
					t.Fatalf("Move(%d, %d) = %v, %v; oracle src %v dst %v", k, to, moved, err, had, dst)
				}
				if moved {
					delete(oracle, k)
					oracle[to] = b
				}
				check("move")
			}
		}
	})
}
