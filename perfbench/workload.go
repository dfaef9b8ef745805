package main

import (
	"fmt"
	"math/rand/v2"
)

// opKind is one command type of a workload mix.
type opKind uint8

const (
	opGet opKind = iota
	opSet
	opDel
	opRename
	opSetexLong  // SETEX with a TTL longer than any run
	opSetexShort // SETEX 1 s, only on the reserved key slice
	numOpKinds
)

var opNames = [numOpKinds]string{"get", "set", "del", "rename", "setex-long", "setex-1s"}

// Workload shapes. Key indices are rendered as 7-byte zero-padded
// decimal strings ("0012345"), the shape of real short Redis keys.
const (
	keyLen = 7
	// reservedBase is the first key index of ttl-churn's 1 s SETEX
	// slice, far above every main key range; probeBase is the first key
	// index the in-process ladder uses for keys absent from the
	// workload (rename targets).
	reservedBase = 1_000_000
	reservedKeys = 1 << 16
	probeBase    = 5_000_000
	// longTTL outlives every run; shortTTL is the churn slice's TTL.
	longTTLSeconds  = 86400
	shortTTLSeconds = 1
)

// workload is one traffic mix and the daemon configuration it runs on.
type workload struct {
	name      string
	why       string
	keys      int             // main key range [0, keys)
	valueSize int             // bytes per value
	mix       [numOpKinds]int // weights, summing to 100
	// liveShare is the share of the main key range live after the
	// prefill. write-aof uses the SET/DEL equilibrium 40/(40+15) = 8/11
	// so the key count does not drift with run length.
	liveNum, liveDen int
	prefillTTL       bool     // prefill with SETEX longTTL instead of SET
	persistFlags     []string // appended to the daemon's flags, with -dir
	bgsaveEvery      int64    // acknowledged writes between BGSAVEs (0 = none)
	restartCheck     bool     // end with a graceful restart and a full read-back
	instances        int      // daemons per run; each end-to-end metric is their median
}

var workloads = []*workload{
	{
		name:      "read-1m",
		why:       "1M prefilled keys far outside the CPU caches, 90% GET: the trie descent dominates; persist and expiry idle",
		keys:      1 << 20,
		valueSize: 64,
		mix:       mixOf(opGet, 90, opSet, 10),
		liveNum:   1, liveDen: 1,
		instances: 6,
	},
	{
		name:      "write-aof",
		why:       "16k keys near L2 size, 70% writes with AOF everysec and count-triggered BGSAVE: allocation, GC, gate, AOF, dumps",
		keys:      1 << 14,
		valueSize: 256,
		mix:       mixOf(opSet, 40, opGet, 30, opDel, 15, opRename, 15),
		liveNum:   8, liveDen: 11,
		persistFlags: []string{"-aof", "-appendfsync", "everysec"},
		bgsaveEvery:  200_000,
		restartCheck: true,
		instances:    8,
	},
	{
		name:      "ttl-churn",
		why:       "16k keys all armed with TTLs, GETs take the two-descent armed path while 1 s SETEX churn feeds lazy purge and the reaper",
		keys:      1 << 14,
		valueSize: 64,
		mix:       mixOf(opGet, 80, opSetexLong, 10, opSet, 5, opSetexShort, 5),
		liveNum:   1, liveDen: 1,
		prefillTTL: true,
		instances:  8,
	},
}

func mixOf(kv ...any) [numOpKinds]int {
	var m [numOpKinds]int
	for i := 0; i < len(kv); i += 2 {
		m[kv[i].(opKind)] = kv[i+1].(int)
	}
	return m
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// appendKey appends key index i as a 7-byte decimal string.
func appendKey(dst []byte, i uint32) []byte {
	var b [keyLen]byte
	for j := keyLen - 1; j >= 0; j-- {
		b[j] = byte('0' + i%10)
		i /= 10
	}
	return append(dst, b[:]...)
}

// appendValue appends the value the model binds to (origin, ver): a
// readable header naming the key and version, then filler derived from
// both, so any stale, misplaced or torn value differs from the right one.
func appendValue(dst []byte, origin, ver uint32, size int) []byte {
	start := len(dst)
	dst = append(dst, 'k')
	dst = appendKey(dst, origin)
	dst = append(dst, 'v')
	dst = appendKey(dst, ver%10_000_000)
	x := uint64(origin)<<32 | uint64(ver) | 1
	for len(dst)-start < size {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		dst = append(dst, 'a'+byte(x%26))
	}
	return dst[:start+size]
}

// binding is a live key's value identity: the key it was first written
// under (a RENAME carries it along) and that write's version.
type binding struct{ origin, ver uint32 }

// op is one generated command with the single reply the model allows.
type op struct {
	kind opKind
	key  uint32
	dst  uint32  // RENAME destination
	want binding // GET: expected value (ver 0 = nil); SET*: value written
	del  bool    // DEL: whether the key was live (reply :1)
	// armed marks a GET of a key carrying a TTL: the server's read
	// takes the armed path (a second descent, in the expiry index).
	armed bool
}

// model is one connection's client-side view of the keys it owns: the
// main keys ≡ conn (mod 2). Ownership makes every reply deterministic —
// no other connection touches these keys — so the op stream, and each
// op's expected reply, is a pure function of (workload, seed, conn).
type model struct {
	w    *workload
	conn uint32
	rng  *rand.Rand
	cum  [numOpKinds]int

	val  []binding // by key index; ver 0 = absent
	live []uint32  // owned live keys (write-aof's RENAME/DEL sampling)
	dead []uint32  // owned absent keys
	pos  []int32   // key index → position in live or dead
	nver uint32    // next version

	armed    []bool // ttl-churn: key carries a TTL
	reserved uint32 // ttl-churn: next 1 s SETEX slot of this connection

	writes int64 // write ops generated
}

func newModel(w *workload, seed uint64, conn uint32) *model {
	m := &model{
		w:    w,
		conn: conn,
		rng:  rand.New(rand.NewPCG(seed, uint64(conn)+0x9e3779b97f4a7c15)),
		val:  make([]binding, w.keys),
		nver: 1,
	}
	c := 0
	for k := opKind(0); k < numOpKinds; k++ {
		c += w.mix[k]
		m.cum[k] = c
	}
	if w.liveNum != w.liveDen {
		m.pos = make([]int32, w.keys)
	}
	if w.prefillTTL {
		m.armed = make([]bool, w.keys)
	}
	return m
}

// prefill returns the prefill ops for this connection's keys and
// records them in the model. The live subset is drawn from the seed.
func (m *model) prefill() []op {
	var ops []op
	prefillRNG := rand.New(rand.NewPCG(^uint64(m.conn), m.rng.Uint64()))
	kind := opSet
	if m.w.prefillTTL {
		kind = opSetexLong
	}
	for k := m.conn; k < uint32(m.w.keys); k += 2 {
		if m.w.liveNum != m.w.liveDen && prefillRNG.IntN(m.w.liveDen) >= m.w.liveNum {
			m.markDead(k)
			continue
		}
		b := binding{k, m.nextVer()}
		m.val[k] = b
		m.markLive(k)
		if m.armed != nil {
			m.armed[k] = true
		}
		ops = append(ops, op{kind: kind, key: k, want: b})
	}
	return ops
}

func (m *model) nextVer() uint32 { v := m.nver; m.nver++; return v }

func (m *model) markLive(k uint32) {
	if m.pos == nil {
		return
	}
	m.pos[k] = int32(len(m.live))
	m.live = append(m.live, k)
}

func (m *model) markDead(k uint32) {
	if m.pos == nil {
		return
	}
	m.pos[k] = int32(len(m.dead))
	m.dead = append(m.dead, k)
}

// moveSet moves k from one index set to the other (swap-remove).
func (m *model) moveSet(k uint32, from, to *[]uint32) {
	s := *from
	i := m.pos[k]
	last := s[len(s)-1]
	s[i] = last
	m.pos[last] = i
	*from = s[:len(s)-1]
	m.pos[k] = int32(len(*to))
	*to = append(*to, k)
}

// randomOwned returns a uniformly drawn main key this connection owns.
func (m *model) randomOwned() uint32 {
	return uint32(m.rng.IntN(m.w.keys/2))*2 + m.conn
}

// next draws the next op and applies it to the model.
func (m *model) next() op {
	r := m.rng.IntN(100)
	kind := opKind(0)
	for r >= m.cum[kind] {
		kind++
	}
	switch kind {
	case opGet:
		k := m.randomOwned()
		return op{kind: opGet, key: k, want: m.val[k], armed: m.armed != nil && m.armed[k]}
	case opSet, opSetexLong:
		k := m.randomOwned()
		if m.pos != nil && m.val[k].ver == 0 {
			m.moveSet(k, &m.dead, &m.live)
		}
		b := binding{k, m.nextVer()}
		m.val[k] = b
		if m.armed != nil {
			m.armed[k] = kind == opSetexLong
		}
		m.writes++
		return op{kind: kind, key: k, want: b}
	case opDel:
		k := m.randomOwned()
		wasLive := m.val[k].ver != 0
		if wasLive {
			m.moveSet(k, &m.live, &m.dead)
			m.val[k] = binding{}
		}
		m.writes++
		return op{kind: opDel, key: k, del: wasLive}
	case opRename:
		// An owned live key onto an owned absent key: with BytesKeyer
		// every 7-byte decimal key shares shard 1, so this is always the
		// engine's atomic same-shard Replace. The equilibrium live share
		// (8/11) keeps both sets far from empty; fall back to a SET if
		// either ever drains.
		if len(m.live) == 0 || len(m.dead) == 0 {
			return m.forceSet()
		}
		src := m.live[m.rng.IntN(len(m.live))]
		dst := m.dead[m.rng.IntN(len(m.dead))]
		b := m.val[src]
		m.moveSet(src, &m.live, &m.dead)
		m.moveSet(dst, &m.dead, &m.live)
		m.val[src] = binding{}
		m.val[dst] = b
		m.writes++
		return op{kind: opRename, key: src, dst: dst, want: b}
	case opSetexShort:
		k := reservedBase + m.reserved*2 + m.conn
		m.reserved = (m.reserved + 1) % (reservedKeys / 2)
		m.writes++
		return op{kind: opSetexShort, key: k, want: binding{k, m.nextVer()}}
	}
	panic("unreachable")
}

func (m *model) forceSet() op {
	k := m.randomOwned()
	if m.val[k].ver == 0 {
		m.moveSet(k, &m.dead, &m.live)
	}
	b := binding{k, m.nextVer()}
	m.val[k] = b
	m.writes++
	return op{kind: opSet, key: k, want: b}
}

// liveCount is the number of live main keys this connection owns.
func (m *model) liveCount() int {
	if m.pos != nil {
		return len(m.live)
	}
	return m.w.keys / 2
}
