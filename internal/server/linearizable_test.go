package server

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nbtrie/internal/linearizable"
	"nbtrie/internal/persist"
	"nbtrie/internal/resp"
)

// Wire-level linearizability oracle: several non-pipelined clients drive
// GET / SET / DEL / same-shard RENAME at a small key set through real
// connections, every command is recorded as a checker op between the
// send and the reply, and each round's history must be linearizable
// against the sequential map specification. RENAME is the trie's
// atomic Replace here: all keys sit in one shard (decimal keys < 8192
// under a 16-bit keyer with 8 shards, as in TestServerRename), so the
// two-phase cross-shard move (DESIGN.md §12) stays out of scope.

const (
	linClients      = 3
	linOpsPerClient = 20 // 60 ops per history, under the checker's 64
	linKeysPerRound = 3
)

// linOp sends one random command on keys and converts its reply into a
// checker op. vals hands out values unique across the whole test, so a
// Load names exactly the Store it observed.
func linOp(c *testClient, rng *rand.Rand, keys []uint64, vals *atomic.Uint64) (linearizable.Op, error) {
	k := keys[rng.Intn(len(keys))]
	key := strconv.FormatUint(k, 10)
	switch p := rng.Intn(100); {
	case p < 35:
		v, err := c.try("GET", key)
		if err != nil {
			return linearizable.Op{}, err
		}
		op := linearizable.Op{Kind: linearizable.Load, Key: k}
		switch {
		case v.IsNull():
		case v.Kind == resp.TypeBulk:
			n, err := strconv.ParseUint(string(v.Str), 10, 64)
			if err != nil {
				return op, fmt.Errorf("GET %s = %s: %w", key, v, err)
			}
			op.Result, op.Val = true, n
		default:
			return op, fmt.Errorf("GET %s = %s", key, v)
		}
		return op, nil
	case p < 65:
		n := vals.Add(1)
		v, err := c.try("SET", key, strconv.FormatUint(n, 10))
		if err != nil {
			return linearizable.Op{}, err
		}
		if v.Kind != resp.TypeSimple || string(v.Str) != "OK" {
			return linearizable.Op{}, fmt.Errorf("SET %s = %s", key, v)
		}
		return linearizable.Op{Kind: linearizable.Store, Key: k, Val: n, Result: true}, nil
	case p < 80:
		v, err := c.try("DEL", key)
		if err != nil {
			return linearizable.Op{}, err
		}
		if v.Kind != resp.TypeInt || v.Int < 0 || v.Int > 1 {
			return linearizable.Op{}, fmt.Errorf("DEL %s = %s", key, v)
		}
		return linearizable.Op{Kind: linearizable.Delete, Key: k, Result: v.Int == 1}, nil
	default:
		k2 := keys[rng.Intn(len(keys))]
		for k2 == k {
			k2 = keys[rng.Intn(len(keys))]
		}
		v, err := c.try("RENAME", key, strconv.FormatUint(k2, 10))
		if err != nil {
			return linearizable.Op{}, err
		}
		op := linearizable.Op{Kind: linearizable.Replace, Key: k, Key2: k2}
		switch {
		case v.Kind == resp.TypeSimple && string(v.Str) == "OK":
			op.Result = true
		case v.Kind == resp.TypeError && (strings.Contains(string(v.Str), "no such key") ||
			strings.Contains(string(v.Str), "destination key exists")):
		default:
			return op, fmt.Errorf("RENAME %s %d = %s", key, k2, v)
		}
		return op, nil
	}
}

// runLinRounds records and checks rounds histories. Each round uses keys
// no earlier round touched, so every history starts from the empty map
// the checker assumes. With bgsave, the first client also issues an
// unrecorded BGSAVE halfway through each round. It returns the keys used.
func runLinRounds(t *testing.T, addr string, rounds int, bgsave bool) []uint64 {
	t.Helper()
	clients := make([]*testClient, linClients)
	for i := range clients {
		clients[i] = dial(t, addr)
	}
	var vals atomic.Uint64
	var used []uint64
	for round := 0; round < rounds; round++ {
		keys := make([]uint64, linKeysPerRound)
		for i := range keys {
			keys[i] = uint64(1 + round*linKeysPerRound + i)
		}
		used = append(used, keys...)
		rec := linearizable.NewRecorder()
		errs := make(chan error, linClients)
		var wg sync.WaitGroup
		for id, c := range clients {
			wg.Add(1)
			go func(id int, c *testClient) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*linClients + id)))
				for i := 0; i < linOpsPerClient; i++ {
					if bgsave && id == 0 && i == linOpsPerClient/2 {
						v, err := c.try("BGSAVE")
						if err != nil || (v.Kind != resp.TypeSimple && !strings.Contains(string(v.Str), "in progress")) {
							errs <- fmt.Errorf("BGSAVE = %s, %v", v, err)
							return
						}
					}
					var err error
					rec.RecordOp(func() linearizable.Op {
						var op linearizable.Op
						op, err = linOp(c, rng, keys, &vals)
						return op
					})
					if err != nil {
						errs <- fmt.Errorf("client %d: %w", id, err)
						return
					}
				}
			}(id, c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", round, err)
		}
		if h := rec.History(); !linearizable.Check(h) {
			t.Fatalf("round %d: history not linearizable:\n%v", round, h)
		}
	}
	return used
}

func TestServerLinearizableHistories(t *testing.T) {
	rounds := 300
	if testing.Short() {
		rounds = 30
	}
	_, addr := startServer(t, Config{Keyer: DecimalKeyer{KeyWidth: 16}, Shards: 8})
	runLinRounds(t, addr, rounds, false)
}

// TestServerLinearizableHistoriesAOF runs the oracle with AOF everysec
// on and a BGSAVE rotating the dump mid-round, then restarts on the
// same directory: recovery must reproduce every key's final binding.
func TestServerLinearizableHistoriesAOF(t *testing.T) {
	rounds := 100
	if testing.Short() {
		rounds = 10
	}
	cfg := Config{
		Keyer:   DecimalKeyer{KeyWidth: 16},
		Shards:  8,
		Persist: PersistConfig{Dir: t.TempDir(), AOF: true, Fsync: persist.SyncEverySec},
	}
	s, addr := startServer(t, cfg)
	keys := runLinRounds(t, addr, rounds, true)

	c := dial(t, addr)
	final := make([]resp.Value, len(keys))
	for i, k := range keys {
		final[i] = c.do("GET", strconv.FormatUint(k, 10))
	}
	_, addr = restart(t, s, cfg)
	c = dial(t, addr)
	for i, k := range keys {
		got := c.do("GET", strconv.FormatUint(k, 10))
		if got.IsNull() != final[i].IsNull() || string(got.Str) != string(final[i].Str) {
			t.Fatalf("key %d after restart = %s, want %s", k, got, final[i])
		}
	}
}
