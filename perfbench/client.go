package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Phases of a load connection. The main goroutine moves them forward;
// each connection reads the phase once per batch and books the whole
// batch under it.
const (
	phWarm    int32 = iota // warm-up: checked, not measured
	phMeasure              // measured, untraced
	phTraced               // measured, with batch spans recorded
	phStop
	numPhases = phStop
)

const (
	// pipelineDepth is the commands per batch. Deep enough that a batch
	// is mostly server work rather than wake-ups: at 16 the loopback
	// hand-offs dominate and throughput swings with thread placement.
	pipelineDepth = 64
	prefillDepth  = 256 // commands per batch while prefilling
	maxFailures   = 8   // failure messages kept for the report
)

// sliceDur cuts a measured window into slices; each slice records its
// own commands and latencies, so an instance can be measured on the
// slices that lost the least CPU time to other tenants of the host.
const sliceDur = 250 * time.Millisecond

// maxSlices bounds a window's slices (over 17 minutes); batches past it
// are not recorded.
const maxSlices = 1 << 12

// slice is one connection's tally over one sliceDur of a window.
type slice struct {
	ops               int64
	readLat, writeLat []float32 // per-command latency, µs
}

// appendBulk appends one RESP bulk string.
func appendBulk(dst, b []byte) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(b)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, b...)
	return append(dst, '\r', '\n')
}

var (
	cmdGET    = []byte("GET")
	cmdSET    = []byte("SET")
	cmdDEL    = []byte("DEL")
	cmdRENAME = []byte("RENAME")
	cmdSETEX  = []byte("SETEX")
	longTTL   = []byte(strconv.Itoa(longTTLSeconds))
	shortTTL  = []byte(strconv.Itoa(shortTTLSeconds))
)

// appendCommand appends o's RESP request. kb is reused for the key
// and value renderings and returned grown.
func appendCommand(dst []byte, o op, valueSize int, kb []byte) ([]byte, []byte) {
	key := appendKey(kb[:0], o.key)
	switch o.kind {
	case opGet, opDel:
		name := cmdGET
		if o.kind == opDel {
			name = cmdDEL
		}
		dst = append(dst, "*2\r\n"...)
		dst = appendBulk(dst, name)
		dst = appendBulk(dst, key)
	case opSet:
		val := appendValue(key, o.want.origin, o.want.ver, valueSize)
		dst = append(dst, "*3\r\n"...)
		dst = appendBulk(dst, cmdSET)
		dst = appendBulk(dst, val[:keyLen])
		dst = appendBulk(dst, val[keyLen:])
		key = val
	case opRename:
		both := appendKey(key, o.dst)
		dst = append(dst, "*3\r\n"...)
		dst = appendBulk(dst, cmdRENAME)
		dst = appendBulk(dst, both[:keyLen])
		dst = appendBulk(dst, both[keyLen:])
		key = both
	case opSetexLong, opSetexShort:
		ttl := longTTL
		if o.kind == opSetexShort {
			ttl = shortTTL
		}
		val := appendValue(key, o.want.origin, o.want.ver, valueSize)
		dst = append(dst, "*4\r\n"...)
		dst = appendBulk(dst, cmdSETEX)
		dst = appendBulk(dst, val[:keyLen])
		dst = appendBulk(dst, ttl)
		dst = appendBulk(dst, val[keyLen:])
		key = val
	}
	return dst, key
}

// userBytes is the key+value payload an acknowledged write o stores.
func userBytes(o op, valueSize int) int64 {
	switch o.kind {
	case opSet, opSetexLong, opSetexShort:
		return int64(keyLen + valueSize)
	case opRename:
		return 2 * keyLen
	case opDel:
		return keyLen
	}
	return 0
}

// connStats is one load connection's tally. Only its own goroutine
// writes it; the main goroutine reads it after the goroutine has ended.
type connStats struct {
	ops     [numPhases]int64
	batchNS [numPhases]int64 // Σ flush-to-last-reply time of the batches

	slices     []slice           // measured batches, by the slice they started in
	kinds      [numOpKinds]int64 // measured commands by kind
	armedReads int64             // measured GETs of a TTL'd key
	userBytes  int64             // measured acknowledged write payload

	attempted, failed int64
	failures          []string
}

func (s *connStats) fail(format string, args ...any) {
	s.failed++
	if len(s.failures) < maxFailures {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// faults plants failures the oracle must catch (self-tests only).
type faults struct {
	staleGetAtBatch int  // before this batch of conn 0, overwrite a GET's key with a stale value
	errorAtBatch    int  // in this batch of conn 0, send one GET with an unencodable key
	loseWrite       bool // delete an acknowledged key behind the model before the restart
}

// loader runs one pipelined connection in a closed loop: build a batch,
// flush it, read and check every reply, repeat.
type loader struct {
	w      *workload
	m      *model
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	stats  connStats
	spans  *spanStore
	plant  *faults
	req    []byte
	kbuf   []byte
	vbuf   []byte
	rbuf   []byte
	ops    []op
	batchN int
}

func newLoader(w *workload, m *model, c net.Conn, spans *spanStore, plant *faults) *loader {
	return &loader{
		w: w, m: m, conn: c,
		br:    bufio.NewReaderSize(c, 64<<10),
		bw:    bufio.NewWriterSize(c, 64<<10),
		spans: spans,
		plant: plant,
		ops:   make([]op, 0, prefillDepth),
	}
}

// loadShared is the state the load connections share with the main
// goroutine and the BGSAVE trigger.
type loadShared struct {
	phase  atomic.Int32
	start  atomic.Int64  // measured window's start, Unix ns
	total  atomic.Int64  // commands completed, every phase
	writes atomic.Int64  // writes acknowledged, every phase
	failed atomic.Bool   // a connection has failed
	kick   chan struct{} // BGSAVE trigger, capacity 1
}

// drive runs the loaders' load until the phase reaches phStop and
// returns a func that waits for them and reports their errors.
func (sh *loadShared) drive(loaders []*loader) (wait func() []error) {
	var wg sync.WaitGroup
	errs := make([]error, len(loaders))
	for i, dr := range loaders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = dr.run(sh); errs[i] != nil {
				sh.failed.Store(true)
			}
		}()
	}
	return func() []error { wg.Wait(); return errs }
}

// warm waits until warmupOps commands have completed, a connection has
// failed, or 30 s have passed.
func (sh *loadShared) warm() {
	deadline := time.Now().Add(30 * time.Second)
	for sh.total.Load() < warmupOps && !sh.failed.Load() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
}

// run drives load until the phase reaches phStop or the connection
// fails. It returns the connection error, if any.
func (d *loader) run(sh *loadShared) error {
	for {
		ph := sh.phase.Load()
		if ph == phStop {
			return nil
		}
		d.ops = d.ops[:0]
		for len(d.ops) < pipelineDepth {
			d.ops = append(d.ops, d.m.next())
		}
		d.batchN++
		sl := -1
		if t0 := sh.start.Load(); ph != phWarm && t0 != 0 {
			if k := int(time.Since(time.Unix(0, t0)) / sliceDur); k < maxSlices {
				sl = k
			}
		}
		start, end, err := d.roundTrip(d.ops, sl)
		n := int64(len(d.ops))
		d.stats.ops[ph] += n
		d.stats.batchNS[ph] += int64(end.Sub(start))
		if ph == phTraced && d.spans != nil {
			d.spans.record(d.spans.reserve(), "net.batch", start, end, 0, 0)
		}
		if err != nil {
			return err
		}
		sh.total.Add(n)
		var wn int64
		for _, o := range d.ops {
			if o.kind != opGet {
				wn++
			}
		}
		if w := sh.writes.Add(wn); d.w.bgsaveEvery > 0 && w/d.w.bgsaveEvery != (w-wn)/d.w.bgsaveEvery {
			select {
			case sh.kick <- struct{}{}:
			default:
			}
		}
	}
}

// roundTrip sends ops as one pipelined batch and checks every reply
// against the model. A measured batch (sl >= 0) records its commands
// in slice sl, with each command's latency: from the flush of the batch
// to the reply being parsed.
func (d *loader) roundTrip(ops []op, sl int) (start, end time.Time, err error) {
	var tally *slice
	if sl >= 0 {
		for len(d.stats.slices) <= sl {
			d.stats.slices = append(d.stats.slices, slice{})
		}
		tally = &d.stats.slices[sl]
		tally.ops += int64(len(ops))
	}
	d.req = d.req[:0]
	staleKey := -1
	if d.plant != nil && d.m.conn == 0 {
		if d.batchN >= d.plant.staleGetAtBatch && d.plant.staleGetAtBatch > 0 {
			for i, o := range ops {
				if o.kind == opGet && o.want.ver != 0 {
					// Overwrite the key with a version the model never
					// wrote; its own reply is read and dropped below.
					stale := op{kind: opSet, key: o.key, want: binding{o.key, 0}}
					d.req, d.kbuf = appendCommand(d.req, stale, d.w.valueSize, d.kbuf)
					staleKey = i
					d.plant.staleGetAtBatch = 0
					break
				}
			}
		}
	}
	for i, o := range ops {
		if d.plant != nil && d.m.conn == 0 && d.plant.errorAtBatch > 0 && d.batchN == d.plant.errorAtBatch && i == 0 {
			// An 8-byte key: BytesKeyer refuses it with an error reply
			// while the model expects an ordinary one.
			d.req = append(d.req, "*2\r\n$3\r\nGET\r\n$8\r\n00000000\r\n"...)
			continue
		}
		d.req, d.kbuf = appendCommand(d.req, o, d.w.valueSize, d.kbuf)
	}
	d.stats.attempted += int64(len(ops))
	if _, err = d.bw.Write(d.req); err == nil {
		start = time.Now()
		err = d.bw.Flush()
	}
	if err != nil {
		d.stats.fail("write: %v (%d commands unanswered)", err, len(ops))
		return start, time.Now(), err
	}
	if staleKey >= 0 {
		if _, _, err = d.readReply(); err != nil {
			d.stats.fail("planted SET: %v", err)
			return start, time.Now(), err
		}
	}
	for i, o := range ops {
		typ, payload, err := d.readReply()
		if err != nil {
			d.stats.fail("read: %v (%d commands unanswered)", err, len(ops)-i)
			return start, time.Now(), err
		}
		t := time.Now()
		d.check(o, typ, payload)
		if tally != nil {
			us := float32(t.Sub(start).Nanoseconds()) / 1e3
			if o.kind == opGet {
				tally.readLat = append(tally.readLat, us)
				if o.armed {
					d.stats.armedReads++
				}
			} else {
				tally.writeLat = append(tally.writeLat, us)
				d.stats.userBytes += userBytes(o, d.w.valueSize)
			}
			d.stats.kinds[o.kind]++
		}
	}
	return start, time.Now(), nil
}

// readReply reads one reply: its type byte and payload (the line for
// simple strings, integers and errors; the body for bulk strings; nil
// for a null bulk). The payload is valid until the next call.
func (d *loader) readReply() (byte, []byte, error) {
	line, err := d.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return 0, nil, fmt.Errorf("malformed reply line %q", line)
	}
	typ, body := line[0], line[1:len(line)-2]
	if typ != '$' {
		return typ, body, nil
	}
	n, err := strconv.Atoi(string(body))
	if err != nil {
		return 0, nil, fmt.Errorf("bad bulk length %q", body)
	}
	if n < 0 {
		return typ, nil, nil
	}
	if cap(d.rbuf) < n+2 {
		d.rbuf = make([]byte, n+2)
	}
	d.rbuf = d.rbuf[:n+2]
	if _, err := io.ReadFull(d.br, d.rbuf); err != nil {
		return 0, nil, err
	}
	return typ, d.rbuf[:n], nil
}

// check compares one reply with the model's single right answer.
func (d *loader) check(o op, typ byte, payload []byte) {
	if typ == '-' {
		d.stats.fail("%s %07d: error reply %q", opNames[o.kind], o.key, payload)
		return
	}
	switch o.kind {
	case opGet:
		if o.want.ver == 0 {
			if typ != '$' || payload != nil {
				d.stats.fail("GET %07d: got %c%q, want nil", o.key, typ, clip(payload))
			}
			return
		}
		d.vbuf = appendValue(d.vbuf[:0], o.want.origin, o.want.ver, d.w.valueSize)
		if typ != '$' || !bytes.Equal(payload, d.vbuf) {
			d.stats.fail("GET %07d: got %c%q, want %q", o.key, typ, clip(payload), clip(d.vbuf))
		}
	case opDel:
		want := "0"
		if o.del {
			want = "1"
		}
		if typ != ':' || string(payload) != want {
			d.stats.fail("DEL %07d: got %c%q, want :%s", o.key, typ, payload, want)
		}
	default:
		if typ != '+' || string(payload) != "OK" {
			d.stats.fail("%s %07d: got %c%q, want +OK", opNames[o.kind], o.key, typ, payload)
		}
	}
}

func clip(b []byte) []byte {
	if len(b) > 24 {
		return b[:24]
	}
	return b
}

// sendAll runs ops through the connection in batches of depth, checking
// every reply (prefill and read-back; nothing is measured).
func (d *loader) sendAll(ops []op, depth int) error {
	for len(ops) > 0 {
		n := min(depth, len(ops))
		if _, _, err := d.roundTrip(ops[:n], -1); err != nil {
			return err
		}
		ops = ops[n:]
	}
	return nil
}

// sendEach sends each loader the ops ops(loader) returns, all loaders
// at once, and returns their connection errors.
func sendEach(loaders []*loader, ops func(*loader) []op) error {
	var wg sync.WaitGroup
	errs := make([]error, len(loaders))
	for i, dr := range loaders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = dr.sendAll(ops(dr), prefillDepth)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// prefillOps returns the loader's prefill, recording it in its model.
func (d *loader) prefillOps() []op { return d.m.prefill() }

// readBackOps returns a GET of every main key this connection owns,
// each expecting the model's current binding.
func (d *loader) readBackOps() []op {
	var ops []op
	for k := d.m.conn; k < uint32(d.w.keys); k += 2 {
		ops = append(ops, op{kind: opGet, key: k, want: d.m.val[k]})
	}
	return ops
}
