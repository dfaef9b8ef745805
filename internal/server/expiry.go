package server

// Key expiry: the server-side half of the expiry subsystem (the
// keyspace itself, value and deadline in one leaf per key, is
// internal/expiry; DESIGN.md §12 has the full protocol).
//
// Every read path is lazy: a key whose deadline has passed reads as
// absent and is purged on the spot. The background reaper (reaperLoop)
// is the eager half — it sleeps until the earliest armed deadline and
// range-scans everything due, so expired keys stop occupying memory even
// if nothing ever reads them. A purge is one delete conditional on the
// exact entry — value allocation and arming — that was found due, so it
// can never eat a value stored or re-armed since: any such write
// replaced the leaf the purge is aimed at.

import (
	"math"
	"strconv"
	"time"

	"nbtrie/internal/expiry"
	"nbtrie/internal/resp"
)

// nowMS is the server's current time in Unix milliseconds.
func (s *Server) nowMS() int64 { return s.clock() }

// due reports whether e's deadline has passed. The clock is consulted
// only when e is armed, so unarmed keys never pay for it.
func (s *Server) due(e expiry.Entry) bool {
	return e.Arming != 0 && e.Due(s.nowMS())
}

// lookupLive is the lazy read path: k's entry when present and not due.
// A due entry reads as absent and is purged on the way out. One
// wait-free allocation-free descent — GET, EXISTS, MGET and TTL pay
// nothing more for expiry.
func (s *Server) lookupLive(k uint64) (expiry.Entry, bool) {
	e, ok := s.db.Lookup(k)
	if ok && s.due(e) {
		s.purge(k, e)
		return e, false
	}
	return e, ok
}

// purge removes k if it still holds exactly the due entry e, counting
// the expiry. Returns true iff this call deleted k.
func (s *Server) purge(k uint64, e expiry.Entry) bool {
	if !s.db.Remove(k, e) {
		return false
	}
	s.db.NoteExpired()
	return true
}

// reapOnce runs one reaper pass over everything due by now.
func (s *Server) reapOnce() int {
	start := time.Now()
	n := s.db.Reap(s.nowMS(), s.purge)
	s.met.reapPass.Record(uint64(time.Since(start).Microseconds()))
	return n
}

// ReapNow forces one synchronous reaper pass and returns the number of
// keys it expired (tests and diagnostics; the background reaper does
// this on its own schedule).
func (s *Server) ReapNow() int { return s.reapOnce() }

// reaperLoop is the background reaper: sleep until the earliest armed
// deadline, scan everything due, repeat. The missed-wakeup protocol with
// Index.Set: Arm(MaxInt64) BEFORE reading Earliest, so any Set landing
// between the read and the sleep sees an "infinitely late" armed value
// and signals Wake; then Arm(deadline) so only genuinely earlier
// deadlines signal while sleeping.
func (s *Server) reaperLoop() {
	defer close(s.reapDone)
	// Opening pass: purge whatever expired before the process started
	// (recovery replays absolute deadlines; some are already past).
	s.reapOnce()
	for {
		s.db.Arm(math.MaxInt64)
		deadline, ok := s.db.Earliest()
		if !ok {
			select {
			case <-s.reapStop:
				return
			case <-s.db.Wake():
				continue
			}
		}
		s.db.Arm(deadline)
		if wait := deadline - s.nowMS(); wait > 0 {
			t := time.NewTimer(time.Duration(wait) * time.Millisecond)
			select {
			case <-s.reapStop:
				t.Stop()
				return
			case <-s.db.Wake():
				t.Stop()
				continue // an earlier deadline arrived; re-plan
			case <-t.C:
			}
		}
		s.reapOnce()
	}
}

// ---- wire commands ----

// parseIntArg parses a signed 64-bit integer argument (seconds or
// milliseconds). Shared by dispatch and AOF replay (PEXPIREAT records).
func parseIntArg(b []byte) (int64, bool) {
	n, err := strconv.ParseInt(string(b), 10, 64)
	return n, err == nil
}

// parseIntArg answers the standard Redis error on failure.
func (ss *session) parseIntArg(b []byte) (int64, bool) {
	n, ok := parseIntArg(b)
	if !ok {
		ss.w.WriteError("ERR value is not an integer or out of range")
	}
	return n, ok
}

// deadlineFromArg turns a parsed quantity into an absolute deadline in
// Unix milliseconds, saturating instead of overflowing: n units of
// unitMS each, absolute (EXPIREAT/PEXPIREAT) or relative to now
// (EXPIRE/PEXPIRE). It never returns less than 1, so a deadline is
// never mistaken for applyDeadline's 0 = PERSIST.
func deadlineFromArg(now, n, unitMS int64, absolute bool) int64 {
	lim := expiry.MaxDeadlineMS / unitMS
	ms := min(max(n, -lim), lim) * unitMS
	if !absolute {
		ms += now
	}
	return max(ms, 1)
}

// applyDeadline is the write half of EXPIRE, PERSIST and GETEX, and
// logs what it did: deadline 0 drops k's TTL (logged as PERSIST when
// there was one), a deadline already past deletes k (logged as DEL —
// Redis semantics), any other re-arms k (logged as the absolute
// PEXPIREAT, so replay is immune to replay-time clocks). Each is one
// update of k's leaf and applies only while k is live, so it cannot
// resurrect a key that a purge is removing. It returns k's entry before
// the call and whether k was live; a k found due is purged.
func (s *Server) applyDeadline(key []byte, k uint64, deadline, now int64) (prev expiry.Entry, live bool) {
	s.gate.RLock()
	defer s.gate.RUnlock()
	if deadline != 0 && deadline <= now {
		prev, deleted := s.db.Delete(k)
		if deleted {
			s.db.NoteExpired()
		}
		live = deleted && !prev.Due(now)
		if live {
			s.appendMutation([]byte("DEL"), key)
		}
		return prev, live
	}
	prev, live = s.db.Expire(k, deadline, now)
	switch {
	case !live:
		if prev.Due(now) {
			s.purge(k, prev)
		}
	case deadline != 0:
		s.appendMutation([]byte("PEXPIREAT"), key, strconv.AppendInt(nil, deadline, 10))
	case prev.Arming != 0:
		s.appendMutation([]byte("PERSIST"), key)
	}
	return prev, live
}

// expireCmd implements EXPIRE/PEXPIRE/EXPIREAT/PEXPIREAT: arm (or
// re-arm) a key's deadline. Replies :1 when a deadline was set (or the
// key deleted outright for an already-past deadline, Redis semantics),
// :0 when the key does not exist.
func (ss *session) expireCmd(args [][]byte, unitMS int64, absolute bool) {
	s, w := ss.s, ss.w
	if len(args) != 3 {
		ss.wrongArity(string(args[0]))
		return
	}
	if s.persistDegraded() {
		s.misconf(w)
		return
	}
	k, ok := ss.encodeKey(args[1])
	if !ok {
		return
	}
	n, ok := ss.parseIntArg(args[2])
	if !ok {
		return
	}
	now := s.nowMS()
	_, live := s.applyDeadline(args[1], k, deadlineFromArg(now, n, unitMS, absolute), now)
	w.WriteInt(boolInt(live))
}

// boolInt is the :1/:0 reply of a yes/no command.
func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ttlCmd implements TTL (seconds, rounded to nearest — Redis semantics,
// so 100ms remaining reports 0, not 1) and PTTL (milliseconds): -2 when
// the key does not exist (or has expired), -1 when it has no deadline,
// else the remaining time. Value and deadline come from one leaf read.
func (ss *session) ttlCmd(args [][]byte, inMS bool) {
	s, w := ss.s, ss.w
	if len(args) != 2 {
		ss.wrongArity(string(args[0]))
		return
	}
	k, ok := ss.encodeKey(args[1])
	if !ok {
		return
	}
	e, ok := s.lookupLive(k)
	switch {
	case !ok:
		w.WriteInt(-2)
		return
	case e.Arming == 0:
		w.WriteInt(-1)
		return
	}
	rem := max(e.DeadlineMS()-s.nowMS(), 0)
	if inMS {
		w.WriteInt(rem)
	} else {
		w.WriteInt((rem + 500) / 1000)
	}
}

// persistCmd implements PERSIST: drop the deadline, reply :1 iff one was
// dropped.
func (ss *session) persistCmd(args [][]byte) {
	s, w := ss.s, ss.w
	if len(args) != 2 {
		ss.wrongArity("PERSIST")
		return
	}
	if s.persistDegraded() {
		s.misconf(w)
		return
	}
	k, ok := ss.encodeKey(args[1])
	if !ok {
		return
	}
	prev, live := s.applyDeadline(args[1], k, 0, s.nowMS())
	w.WriteInt(boolInt(live && prev.Arming != 0))
}

// setex implements SETEX key seconds value: SET + EXPIRE as one Swap of
// the key's leaf, logged as the pair SET + PEXPIREAT — the same absolute
// translation Redis uses.
func (ss *session) setex(args [][]byte) {
	s, w := ss.s, ss.w
	if len(args) != 4 {
		ss.wrongArity("SETEX")
		return
	}
	if s.persistDegraded() {
		s.misconf(w)
		return
	}
	k, ok := ss.encodeKey(args[1])
	if !ok {
		return
	}
	sec, ok := ss.parseIntArg(args[2])
	if !ok {
		return
	}
	if sec <= 0 {
		w.WriteError("ERR invalid expire time in 'setex' command")
		return
	}
	deadline := deadlineFromArg(s.nowMS(), sec, 1000, false)
	v := resp.Detach(args[3])
	s.gate.RLock()
	s.db.Store(k, v, deadline)
	s.appendMutation([]byte("SET"), args[1], v)
	s.appendMutation([]byte("PEXPIREAT"), args[1], strconv.AppendInt(nil, deadline, 10))
	s.gate.RUnlock()
	w.WriteSimple("OK")
}

// getex implements GETEX key [EX s | PX ms | EXAT s | PXAT ms |
// PERSIST]: GET that atomically re-arms or disarms the deadline — the
// value replied is the one the same leaf update saw.
func (ss *session) getex(args [][]byte) {
	s, w := ss.s, ss.w
	if len(args) < 2 || len(args) > 4 {
		ss.wrongArity("GETEX")
		return
	}
	k, ok := ss.encodeKey(args[1])
	if !ok {
		return
	}
	// Parse the option before touching anything so a syntax error
	// mutates nothing.
	now := s.nowMS()
	var deadline int64 // 0: PERSIST
	switch len(args) {
	case 2:
		if e, found := s.lookupLive(k); found {
			w.WriteBulk(e.Value)
		} else {
			w.WriteNull()
		}
		return
	case 3:
		if string(ss.upper(args[2])) != "PERSIST" {
			w.WriteError("ERR syntax error")
			return
		}
	case 4:
		var unitMS int64
		var absolute bool
		switch string(ss.upper(args[2])) {
		case "EX":
			unitMS, absolute = 1000, false
		case "PX":
			unitMS, absolute = 1, false
		case "EXAT":
			unitMS, absolute = 1000, true
		case "PXAT":
			unitMS, absolute = 1, true
		default:
			w.WriteError("ERR syntax error")
			return
		}
		n, ok := ss.parseIntArg(args[3])
		if !ok {
			return
		}
		deadline = deadlineFromArg(now, n, unitMS, absolute)
	}
	if s.persistDegraded() {
		s.misconf(w)
		return
	}
	if prev, live := s.applyDeadline(args[1], k, deadline, now); live {
		w.WriteBulk(prev.Value)
	} else {
		w.WriteNull()
	}
}
