// Package expiry is nbtried's keyspace: a sharded non-blocking Patricia
// trie with one leaf per key holding the key's value and its TTL, plus
// a deadline-ordered wake-up index for the background reaper.
//
// A leaf's payload is an Entry{Value, Arming}, so value and deadline are
// one linearizable object, a read of an armed key is one descent, and
// every command is one update of the leaf: SET and SETEX a Swap, EXPIRE
// and PERSIST a conditional UpdateFunc, DEL and a purge a DeleteFunc, a
// same-shard RENAME the paper's Replace, which carries the arming along.
//
// The arming is one word, deadlineMS<<20 | seq (0: no TTL); the 20-bit
// seq, from a global counter, keeps armings unique within a millisecond.
// The same word keys the arming's wake node in byDeadline, an ordered
// trie mapping arming → key, so trie order is deadline order: "what is
// due by now" is one range scan and "when must the reaper wake" one Min.
//
// byDeadline is only a hint; the leaf is truth. A wake node is inserted
// before its arming is published and deleted by whoever supersedes or
// removes that arming; the reaper purges a key only if its leaf still
// holds the node's arming, and drops the node either way. At quiescence
// the wake nodes are exactly the armed keys. DESIGN.md §12 has the
// protocol.
package expiry

import (
	"math"
	"sync/atomic"

	"nbtrie/internal/core"
	"nbtrie/internal/sharded"
)

const (
	// seqBits is the width of the uniquifying suffix of an arming.
	seqBits = 20
	seqMask = (1 << seqBits) - 1

	// idxWidth is byDeadline's key width: the full 63 bits the engine
	// offers, split 43 deadline / 20 seq.
	idxWidth = 63

	// MaxDeadlineMS is the largest representable absolute deadline
	// (Unix milliseconds): 2^43-1 ms ≈ year 2248. Later deadlines are
	// clamped here — indistinguishable from "never" on any real horizon.
	MaxDeadlineMS = int64(1)<<(idxWidth-seqBits) - 1
)

// Entry is one key's leaf payload: its value and its arming,
// deadlineMS<<20 | seq, or 0 when the key has no TTL.
type Entry struct {
	Value  []byte
	Arming uint64
}

// DeadlineMS returns e's absolute deadline in Unix milliseconds, 0 when
// e has no TTL.
func (e Entry) DeadlineMS() int64 { return int64(e.Arming >> seqBits) }

// Due reports whether e is armed with a deadline at or before nowMS.
func (e Entry) Due(nowMS int64) bool { return e.Arming != 0 && e.DeadlineMS() <= nowMS }

// same reports whether have is exactly e: the same arming and the same
// value allocation (backing array and length; a zero-length value has
// no element to anchor on). A value stored by a racing SET never
// matches, even with equal bytes.
func (e Entry) same(have Entry) bool {
	return have.Arming == e.Arming && len(have.Value) == len(e.Value) &&
		(len(e.Value) == 0 || &have.Value[0] == &e.Value[0])
}

// Index is the keyspace and its wake-up index. All methods are safe for
// unrestricted concurrent use.
type Index struct {
	keys       *sharded.Trie[Entry]
	byDeadline *core.Trie[uint64]
	seq        atomic.Uint64

	// Reaper coordination: armed holds the deadline the reaper is
	// currently sleeping toward (MaxInt64 when idle scanning); a new
	// wake node sends on wake — capacity 1, non-blocking — when its
	// deadline is earlier, so the reaper can never sleep past work.
	armed atomic.Int64
	wake  chan struct{}

	expired atomic.Uint64
	passes  atomic.Uint64
}

// New returns an empty keyspace over keys in [0, 2^width), sharded
// shardCount ways (the constraints of sharded.New).
func New(width uint32, shardCount int) (*Index, error) {
	return NewSpan(width, shardCount, 1)
}

// NewSpan is New with each shard's trie built at digit width span (see
// sharded.NewSpan); 1 is New.
func NewSpan(width uint32, shardCount int, span uint32) (*Index, error) {
	keys, err := sharded.NewSpan[Entry](width, shardCount, span)
	if err != nil {
		return nil, err
	}
	byDeadline, err := core.New(idxWidth, core.WithSpan[uint64](4))
	if err != nil {
		return nil, err
	}
	x := &Index{keys: keys, byDeadline: byDeadline, wake: make(chan struct{}, 1)}
	x.armed.Store(math.MaxInt64)
	return x, nil
}

// Keys returns the keyspace trie for reads, counts, snapshots and
// stats; mutate only through the Index, which keeps the wake nodes in
// step.
func (x *Index) Keys() *sharded.Trie[Entry] { return x.keys }

// Lookup returns k's entry, due or not. Wait-free and allocation-free.
func (x *Index) Lookup(k uint64) (Entry, bool) {
	return x.keys.Load(k)
}

// setRetryLap bounds how many consecutive seq-collision retries newWake
// makes at one millisecond before degrading to a neighboring one: a
// full lap of the suffix space in production (every slot provably
// probed); tests lower it to exercise the exhaustion path without
// arming 2^20 keys.
var setRetryLap = seqMask

// clampDeadline forces a deadline into [1, MaxDeadlineMS]; the floor
// keeps every arming nonzero, so 0 can mean "no TTL".
func clampDeadline(ms int64) int64 {
	return min(max(ms, 1), MaxDeadlineMS)
}

// newWake inserts a wake node for k at deadlineMS and returns its
// arming, waking the reaper if the deadline is earlier than the one it
// sleeps toward. The arming's deadline can differ from the requested one
// by the clamp or by the full-millisecond fallback below.
func (x *Index) newWake(k uint64, deadlineMS int64) uint64 {
	d := clampDeadline(deadlineMS)
	down := false
	for tries := 0; ; tries++ {
		a := uint64(d)<<seqBits | x.seq.Add(1)&seqMask
		if x.byDeadline.InsertValue(a, k) {
			if d < x.armed.Load() {
				x.notify()
			}
			return a
		}
		// Seq collision after 2^20 wraps at one millisecond: take the
		// next counter value and retry. If a full lap finds every seq
		// slot for this millisecond occupied (>2^20 keys armed at one
		// deadline — a mass restore or bulk EXPIREAT), degrade by one
		// millisecond instead of spinning forever: prefer later (firing
		// a hair late is invisible), walk earlier once the clamp ceiling
		// is hit so the search still terminates.
		if tries >= setRetryLap {
			if down || d >= MaxDeadlineMS {
				down = true
				d--
			} else {
				d++
			}
			tries = -1
		}
	}
}

// dropWake deletes the wake node of a superseded or removed arming.
func (x *Index) dropWake(arming uint64) {
	if arming != 0 {
		x.byDeadline.Delete(arming)
	}
}

// Store binds k to v (SET, SETEX, recovery), armed at deadlineMS, or
// with no TTL when deadlineMS is 0: one Swap, after which the replaced
// arming's wake node is dropped.
func (x *Index) Store(k uint64, v []byte, deadlineMS int64) {
	e := Entry{Value: v}
	if deadlineMS != 0 {
		e.Arming = x.newWake(k, deadlineMS)
	}
	old, _, ok := x.keys.Swap(k, e)
	if !ok {
		old.Arming = e.Arming // k out of range: nothing was stored
	}
	x.dropWake(old.Arming)
}

// Set re-arms k at deadlineMS, or drops its TTL when deadlineMS is 0,
// due or not; an absent k stays absent. It returns the entry now in
// force, the zero Entry when k is absent. AOF replay uses it; live
// commands use Expire.
func (x *Index) Set(k uint64, deadlineMS int64) Entry {
	_, next, _ := x.rearm(k, deadlineMS, func(Entry) bool { return true })
	return next
}

// Expire is Set only while k is live at nowMS: present and not due. It
// returns k's entry as the update saw it and whether k was live; a due
// prev is the caller's to purge. Re-arm and a racing purge are two
// conditional updates of one leaf, so they cannot both take effect.
func (x *Index) Expire(k uint64, deadlineMS, nowMS int64) (prev Entry, live bool) {
	prev, _, live = x.rearm(k, deadlineMS, func(cur Entry) bool { return !cur.Due(nowMS) })
	return prev, live
}

// rearm gives k a fresh arming at deadlineMS (none when 0) if cond
// approves k's entry: prev is the entry cond saw, next the entry now in
// force, ok whether cond approved. Dropping the TTL of an unarmed key
// leaves the leaf alone.
func (x *Index) rearm(k uint64, deadlineMS int64, cond func(Entry) bool) (prev, next Entry, ok bool) {
	var a uint64
	if deadlineMS != 0 {
		a = x.newWake(k, deadlineMS)
	}
	var write bool
	applied := x.keys.UpdateFunc(k, func(cur Entry) (Entry, bool) {
		prev, next, ok = cur, Entry{Value: cur.Value, Arming: a}, cond(cur)
		write = ok && cur.Arming != a
		return next, write
	})
	if write && !applied {
		// The approved write lost its CAS and the retry found k gone:
		// the results of that attempt no longer describe k.
		prev, next, ok = Entry{}, Entry{}, false
	}
	if applied {
		x.dropWake(prev.Arming)
	} else {
		x.dropWake(a)
	}
	return prev, next, ok
}

// Delete removes k, returning the entry it held.
func (x *Index) Delete(k uint64) (prev Entry, ok bool) {
	ok = x.keys.DeleteFunc(k, func(cur Entry) bool {
		prev = cur
		return true
	})
	if ok {
		x.dropWake(prev.Arming)
	}
	return prev, ok
}

// Remove deletes k only if it still holds exactly e: the purge. A key
// re-armed, overwritten or re-stored since e was read survives.
func (x *Index) Remove(k uint64, e Entry) bool {
	if !x.keys.DeleteFunc(k, e.same) {
		return false
	}
	x.dropWake(e.Arming)
	return true
}

// Move renames from to to: sharded.MoveKey, or sharded.Replace with
// atomicOnly (RENAMESTRICT). The arming travels inside the moved Entry,
// so the destination is never seen without its TTL; the destination is
// then re-armed at the same deadline, moving the wake node to its key.
func (x *Index) Move(from, to uint64, atomicOnly bool) (moved bool, err error) {
	if atomicOnly {
		moved, err = x.keys.Replace(from, to)
	} else {
		moved, err = x.keys.MoveKey(from, to)
	}
	if moved {
		if e, ok := x.keys.Load(to); ok && e.Arming != 0 {
			x.rearm(to, e.DeadlineMS(), func(cur Entry) bool { return cur.Arming == e.Arming })
		}
	}
	return moved, err
}

// Len reports the number of armed keys: the wake-node count, exact at
// quiescence.
func (x *Index) Len() int { return x.byDeadline.Len() }

// Earliest returns the soonest armed deadline, if any.
func (x *Index) Earliest() (deadlineMS int64, ok bool) {
	idx, ok := x.byDeadline.Min()
	if !ok {
		return 0, false
	}
	return int64(idx >> seqBits), true
}

// Arm records the deadline the reaper is about to sleep toward. Calling
// Arm(math.MaxInt64) before scanning for the next deadline closes the
// missed-wakeup window: any arming landing after that store sees an
// "infinitely late" armed value and notifies.
func (x *Index) Arm(deadlineMS int64) { x.armed.Store(deadlineMS) }

// Wake is the reaper's wakeup channel: capacity 1, signalled (never
// blocking) whenever a deadline earlier than the armed one is installed.
func (x *Index) Wake() <-chan struct{} { return x.wake }

func (x *Index) notify() {
	select {
	case x.wake <- struct{}{}:
	default:
	}
}

// Reap scans every wake node due at or before nowMS in deadline order,
// calls purge (normally Remove) for each whose key still holds the
// node's arming, and drops the node either way. It returns the number of
// keys purge reported expired, and counts one reaper pass.
func (x *Index) Reap(nowMS int64, purge func(k uint64, e Entry) bool) int {
	x.passes.Add(1)
	limit := uint64(min(max(nowMS, 0), MaxDeadlineMS))<<seqBits | seqMask
	type cand struct{ arming, key uint64 }
	var cands []cand
	x.byDeadline.AscendKV(0, func(arming uint64, key uint64) bool {
		if arming > limit {
			return false
		}
		cands = append(cands, cand{arming, key})
		return true
	})
	n := 0
	for _, c := range cands {
		if e, ok := x.keys.Load(c.key); ok && e.Arming == c.arming && purge(c.key, e) {
			n++
		}
		x.byDeadline.CompareAndDelete(c.arming, c.key)
	}
	return n
}

// NoteExpired counts a key expired (lazy purge or reaper purge); it
// feeds INFO's expired_keys.
func (x *Index) NoteExpired() { x.expired.Add(1) }

// Stats returns the lifetime counters: keys expired and reaper passes.
func (x *Index) Stats() (expired, passes uint64) {
	return x.expired.Load(), x.passes.Load()
}
