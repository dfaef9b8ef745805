package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"

	"nbtrie/internal/expiry"
	"nbtrie/internal/resp"
)

// In-process measurement of the server dispatch path, exported for
// cmd/nbtriebench's artifact: a TCP load generator can only see client
// codec allocations, while the numbers that decide the server's GC
// pressure — wire parse → dispatch → reply encode, per command — are
// hidden behind the socket. The probe runs that exact path (the same
// ReadCommandReuse + session.dispatch the connection loop uses) against
// an in-memory server with the replies discarded, so the counts are
// deterministic and benchcheck can gate them strictly.

// PathAllocs is the steady-state allocations per command on the server
// dispatch path. Get/Del/Exists/MGet run the full path, engine
// included (their engine ops are allocation-free; Del is measured on an
// absent key — a successful delete's node unlinking is engine work
// pinned by the library artifacts). Set is the full path including the
// engine's store (which allocates trie nodes); SetCodec subtracts an
// engine-only baseline, isolating the codec's contribution — the
// pinned "≤ 1": the value's single copy out of the arena.
type PathAllocs struct {
	Get      float64
	Set      float64
	SetCodec float64
	Del      float64
	Exists   float64
	MGet     float64
}

// loopReader replays the same request bytes forever, so a measurement
// loop never sees EOF or a growing input.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// MeasureServerPathAllocs profiles the dispatch path with valueSize-byte
// SET payloads.
func MeasureServerPathAllocs(valueSize int) (PathAllocs, error) {
	s, err := New(Config{})
	if err != nil {
		return PathAllocs{}, err
	}
	defer s.Close()
	w := resp.NewWriter(bufio.NewWriterSize(io.Discard, 32<<10))
	ss := newSession(s, w)

	val := bytes.Repeat([]byte{'x'}, valueSize)
	seed := func(key string) error {
		k, err := s.keyer.Encode([]byte(key))
		if err != nil {
			return err
		}
		s.db.Store(k, bytes.Clone(val), 0)
		return nil
	}
	for _, key := range []string{"key:123", "aa", "ab"} {
		if err := seed(key); err != nil {
			return PathAllocs{}, err
		}
	}
	// Arm far-future TTLs on the MGET keys so the pins cover BOTH sides
	// of the lazy expiry check: GET/EXISTS/SET on key:123 take the
	// no-arming fast path (no clock read), MGET's aa/ab take the
	// arming-present path (clock comparison). Both must stay
	// allocation-free.
	for _, key := range []string{"aa", "ab"} {
		k, err := s.keyer.Encode([]byte(key))
		if err != nil {
			return PathAllocs{}, err
		}
		s.db.Set(k, expiry.MaxDeadlineMS)
	}

	measure := func(wire []byte) float64 {
		rr := resp.NewRequestReader(bufio.NewReaderSize(&loopReader{data: wire}, 16<<10), s.cfg.Limits)
		// Warm the arena, span table and session scratch to steady state.
		for i := 0; i < 8; i++ {
			args, err := rr.ReadCommandReuse()
			if err != nil {
				panic(err)
			}
			ss.dispatch(args)
		}
		n := testing.AllocsPerRun(200, func() {
			args, err := rr.ReadCommandReuse()
			if err != nil {
				panic(err)
			}
			ss.dispatch(args)
		})
		return n
	}

	bulk := func(arg []byte) string {
		return fmt.Sprintf("$%d\r\n%s\r\n", len(arg), arg)
	}
	p := PathAllocs{
		Get:    measure([]byte("*2\r\n$3\r\nGET\r\n$7\r\nkey:123\r\n")),
		Exists: measure([]byte("*2\r\n$6\r\nEXISTS\r\n$7\r\nkey:123\r\n")),
		Del:    measure([]byte("*2\r\n$3\r\nDEL\r\n$2\r\nzz\r\n")),
		MGet:   measure([]byte("*4\r\n$4\r\nMGET\r\n$2\r\naa\r\n$2\r\nab\r\n$2\r\nzz\r\n")),
		Set:    measure([]byte("*3\r\n$3\r\nSET\r\n$7\r\nkey:123\r\n" + bulk(val))),
	}

	// Engine-only baseline for the same overwrite, to isolate the codec
	// half of SET. Measured on a key the loop above warmed.
	k, err := s.keyer.Encode([]byte("key:123"))
	if err != nil {
		return PathAllocs{}, err
	}
	engine := testing.AllocsPerRun(200, func() { s.db.Store(k, val, 0) })
	p.SetCodec = p.Set - engine
	if p.SetCodec < 0 {
		p.SetCodec = 0
	}
	return p, nil
}
