package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"time"

	"nbtrie"
	"nbtrie/internal/expiry"
	"nbtrie/internal/persist"
	"nbtrie/internal/resp"
	"nbtrie/internal/server"
)

// The in-process ladder times calls into each layer's public functions
// on the workload's own generated inputs: the same seed, prefill, mix
// and value size the daemon saw. Outer layers call inner ones, so a
// layer's self time is its per-op time minus that of the layers below,
// measured on the same op stream.
const (
	streamOps   = 100_000 // mixed ops replayed per layer
	probeOps    = 20_000  // individually timed calls per probe
	spanEvery   = 64      // every n-th probe call is kept as a span
	valuePool   = 1024    // distinct prefill values (memory bound at 1M keys)
	reapPasses  = 200
	keyerWidth  = 59 // server.BytesKeyer's trie width
	defaultSpan = 1
)

var keyer = server.BytesKeyer{}

func trieKey(i uint32) uint64 {
	k, err := keyer.Encode(appendKey(nil, i))
	if err != nil {
		panic(err) // 7-byte keys always encode
	}
	return k
}

// ladder holds the generated inputs shared by every layer's timing.
type ladder struct {
	b      *bench
	w      *workload
	shards int
	spans  *spanStore
	parent uint64

	prefill    []uint64 // trie keys live after the prefill
	prefillTTL bool
	pool       [][]byte
	stream     []op
	keys, dsts []uint64
	values     [][]byte // SET*: value written; GET: expected value or nil
	timerNS    float64
	readShare  float64
	recPerOp   float64 // AOF records per op (SETEX writes two)
	userBytes  int64
}

func newLadder(b *bench, shards int) *ladder {
	l := &ladder{b: b, w: b.w, shards: shards, spans: b.spans, prefillTTL: b.w.prefillTTL}
	var ms [2]*model
	for i := range ms {
		ms[i] = newModel(b.w, b.opts.seed, uint32(i))
		for _, o := range ms[i].prefill() {
			l.prefill = append(l.prefill, trieKey(o.key))
		}
	}
	for i := 0; i < valuePool; i++ {
		l.pool = append(l.pool, appendValue(nil, uint32(i), 1, b.w.valueSize))
	}
	// Interleave the two connections' batches, as on the wire.
	for len(l.stream) < streamOps {
		for _, m := range ms {
			for j := 0; j < pipelineDepth; j++ {
				o := m.next()
				var v []byte
				if o.kind != opDel && o.kind != opRename && o.want.ver != 0 {
					v = appendValue(nil, o.want.origin, o.want.ver, b.w.valueSize)
				}
				l.stream = append(l.stream, o)
				l.keys = append(l.keys, trieKey(o.key))
				l.dsts = append(l.dsts, trieKey(o.dst))
				l.values = append(l.values, v)
				if o.kind == opGet {
					l.readShare++
				} else {
					l.userBytes += userBytes(o, b.w.valueSize)
				}
			}
		}
	}
	l.readShare /= float64(len(l.stream))
	l.timerNS = calibrateTimer()
	return l
}

// calibrateTimer is the median cost of an empty timed region; probe
// samples are reported net of it.
func calibrateTimer() float64 {
	s := make([]int64, 10_000)
	for i := range s {
		t := time.Now()
		s[i] = int64(time.Since(t))
	}
	return median(s)
}

// probe times fn(i) for i in [0, n), sampling every spanEvery-th call
// as a span, and returns the per-call samples in ns net of the timer.
// undo, if set, runs untimed after each call (restoring the key set).
func (l *ladder) probe(name string, n int, fn, undo func(i int)) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		fn(i)
		end := time.Now()
		out[i] = max(0, float64(end.Sub(t))-l.timerNS)
		if i%spanEvery == 0 {
			l.spans.child(name, t, end, l.parent)
		}
		if undo != nil {
			undo(i)
		}
	}
	return out
}

// layer opens a top-level span for one layer's timing, the parent of
// the spans of its sampled calls; the returned func closes it.
func (l *ladder) layer(name string) func() {
	start := time.Now()
	l.parent = l.spans.reserve()
	return func() {
		l.spans.record(l.parent, name, start, time.Now(), 0, 0)
		l.parent = 0
	}
}

func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// kvMap is the surface the stream replay needs from Map and ShardedMap.
type kvMap interface {
	Load(uint64) ([]byte, bool)
	Store(uint64, []byte) bool
	Delete(uint64) bool
}

// replay applies the op stream to m and returns the mean ns per op.
// move is the map's key move: MoveKey on the sharded map, ReplaceKey on
// the engine.
func (l *ladder) replay(m kvMap, move func(a, b uint64)) float64 {
	start := time.Now()
	for i, o := range l.stream {
		switch o.kind {
		case opGet:
			m.Load(l.keys[i])
		case opDel:
			m.Delete(l.keys[i])
		case opRename:
			move(l.keys[i], l.dsts[i])
		default:
			m.Store(l.keys[i], l.values[i])
		}
	}
	return float64(time.Since(start)) / float64(len(l.stream))
}

// fill stores the prefill keys into m.
func (l *ladder) fill(m kvMap) {
	for i, k := range l.prefill {
		m.Store(k, l.pool[i%valuePool])
	}
}

// probes times Load, Store, Delete and the key move on m, prefilled and
// otherwise untouched, and returns their samples by op name.
func (l *ladder) probes(prefix string, m kvMap, move func(a, b uint64)) map[string][]float64 {
	rng := rand.New(rand.NewPCG(l.b.opts.seed, 7))
	pick := make([]uint64, probeOps)
	for i := range pick {
		pick[i] = l.prefill[rng.IntN(len(l.prefill))]
	}
	dsts := make([]uint64, probeOps)
	for i := range dsts {
		dsts[i] = trieKey(probeBase + uint32(i))
	}
	restore := func(i int) { m.Store(pick[i], l.pool[i%valuePool]) }
	return map[string][]float64{
		"load":   l.probe(prefix+".Load", probeOps, func(i int) { m.Load(pick[i]) }, nil),
		"store":  l.probe(prefix+".Store", probeOps, restore, nil),
		"delete": l.probe(prefix+".Delete", probeOps, func(i int) { m.Delete(pick[i]) }, restore),
		"move": l.probe(prefix+".Move", probeOps, func(i int) { move(pick[i], dsts[i]) },
			func(i int) { move(dsts[i], pick[i]) }),
	}
}

// perLayer fills the traced run's metrics.
func (b *bench) perLayer(win *window) error {
	r := b.rep
	ops := win.ops(b)
	kops := float64(ops) / 1e3

	// Wire side: batch time per op, traced vs untraced throughput, the
	// generator's own CPU.
	var loopNS, loopOps int64
	var phOps [numPhases]int64
	var reads, armed, mutations int64
	for _, dr := range b.loaders {
		for _, ph := range []int32{phMeasure, phTraced} {
			loopNS += dr.stats.batchNS[ph]
			loopOps += dr.stats.ops[ph]
			phOps[ph] += dr.stats.ops[ph]
		}
		reads += dr.stats.kinds[opGet]
		armed += dr.stats.armedReads
		for k := opKind(0); k < numOpKinds; k++ {
			if k != opGet {
				mutations += dr.stats.kinds[k]
			}
		}
	}
	thrU := float64(phOps[phMeasure]) / win.phaseTime[phMeasure].Seconds()
	thrT := float64(phOps[phTraced]) / win.phaseTime[phTraced].Seconds()
	r.metric("trace.overhead_pct", (thrU-thrT)/thrU*100, "%")
	r.metric("client.cpu_us_per_op", float64(win.clientCPU.Nanoseconds())/1e3/float64(ops), "us")
	loopPerOp := float64(loopNS) / float64(loopOps)

	// Daemon counters over the window.
	delta := func(k string) float64 { return float64(infoInt(win.info1, k) - infoInt(win.info0, k)) }
	retries := delta("engine_op_retries_total")
	r.metric("engine.retries_per_kop", retries/kops, "1/kop")
	r.metric("engine.help_assists_per_kop", delta("engine_help_assists_total")/kops, "1/kop")
	r.metric("engine.cas_failures_per_kop", delta("engine_child_cas_failures_total")/kops, "1/kop")
	r.metric("engine.snapshot_renewals_per_kop", delta("engine_snapshot_renewals_total")/kops, "1/kop")
	r.metric("engine.first_try_ratio", max(0, 1-retries/float64(max(1, mutations))), "ratio")
	r.metric("expiry.expired_per_kop", delta("expired_keys")/kops, "1/kop")
	r.metric("expiry.armed_read_ratio", float64(armed)/float64(max(1, reads)), "ratio")
	shards := int(infoInt(win.info1, "shards"))

	const lat = "nbtried_command_latency_seconds"
	readQ := histDelta(win.hist0, win.hist1, lat+`{cmd="get"}`)
	writeQ := histDelta(win.hist0, win.hist1, lat+`{cmd="set"}`, lat+`{cmd="del"}`, lat+`{cmd="rename"}`, lat+`{cmd="setex"}`)
	r.metric("server.read.us_p50", readQ(0.50)*1e6, "us")
	r.metric("server.read.us_p99", readQ(0.99)*1e6, "us")
	r.metric("server.write.us_p50", writeQ(0.50)*1e6, "us")
	r.metric("server.write.us_p99", writeQ(0.99)*1e6, "us")

	// The daemon's Go runtime, from gctrace lines that arrived in the
	// window.
	cycles, last := win.gc.window(win.start, win.end)
	var gcCPU, stw float64
	for _, c := range cycles {
		gcCPU += c.cpuMS
		stw += c.stwMS
	}
	secs := win.end.Sub(win.start).Seconds()
	r.metric("gc.cycles_per_mop", float64(len(cycles))/(float64(ops)/1e6), "1/Mop")
	r.metric("gc.cpu_fraction", gcCPU/max(1, float64(win.serverCPU.Milliseconds())), "ratio")
	r.metric("gc.stw_us_per_s", stw*1e3/secs, "us/s")
	heap := 0.0
	if last != nil {
		heap = last.liveMB
		b.rep.Provenance["gomaxprocs_daemon"] = last.procs
	}
	r.metric("gc.heap_live_mb", heap, "MB")
	r.extra("gc.cycles_in_window", float64(len(cycles)), "count")
	for _, n := range []string{"server.read.us_p50", "server.read.us_p99"} {
		r.Samples[n] = reads
	}

	// In-process ladder, outside-in.
	freeMemory()
	l := newLadder(b, shards)
	parse, reply := l.respLayer()
	inproc, err := l.serverLayer()
	if err != nil {
		return err
	}
	shardedPerOp, err := l.shardedLayer()
	if err != nil {
		return err
	}
	mapPerOp := l.engineLayer()
	lookup := l.expiryLayer()
	appendNS, err := l.persistAOF()
	if err != nil {
		return err
	}

	r.metric("net.us_per_op", (loopPerOp-inproc)/1e3, "us")
	r.metric("server.inproc_ns_per_op", inproc, "ns")
	self := inproc - parse - reply - shardedPerOp - l.readShare*lookup
	if b.w.persistFlags != nil {
		self -= l.recPerOp * appendNS
	}
	r.metric("server.self_ns_per_op", self, "ns")
	r.metric("sharded.self_ns_per_op", shardedPerOp-mapPerOp, "ns")
	r.extra("ladder.sharded_stream_ns_per_op", shardedPerOp, "ns")
	r.extra("ladder.map_stream_ns_per_op", mapPerOp, "ns")
	r.extra("ladder.loopback_batch_ns_per_op", loopPerOp, "ns")
	r.extra("ladder.timer_overhead_ns", l.timerNS, "ns")
	return nil
}

// histDelta returns a quantile function over the named histograms'
// samples recorded between the two scrapes.
func histDelta(h0, h1 map[string]*promHist, names ...string) func(q float64) float64 {
	counts := map[float64]float64{}
	add := func(h *promHist, sign float64) {
		if h == nil {
			return
		}
		prev := 0.0
		for i, b := range h.bounds {
			counts[b] += sign * (h.cum[i] - prev)
			prev = h.cum[i]
		}
	}
	for _, n := range names {
		add(h1[n], 1)
		add(h0[n], -1)
	}
	var bounds, cum []float64
	for b := range counts {
		bounds = append(bounds, b)
	}
	slices.Sort(bounds)
	total := 0.0
	for _, b := range bounds {
		total += counts[b]
		cum = append(cum, total)
	}
	return func(q float64) float64 { return histQuantile(bounds, cum, q) }
}

// respLayer times the RESP codec on the stream: parsing the request
// bytes with RequestReader.ReadCommandReuse, and writing the replies.
func (l *ladder) respLayer() (parseNS, replyNS float64) {
	defer l.layer("resp")()
	var req, kb []byte
	for _, o := range l.stream {
		req, kb = appendCommand(req, o, l.w.valueSize, kb)
	}
	n := float64(len(l.stream))
	var parse, reply []float64
	var allocs float64
	for rep := 0; rep < 3; rep++ {
		rr := resp.NewRequestReader(bufio.NewReaderSize(bytes.NewReader(req), 64<<10), resp.DefaultLimits)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for {
			if _, err := rr.ReadCommandReuse(); err != nil {
				break
			}
		}
		end := time.Now()
		runtime.ReadMemStats(&ms1)
		l.spans.child("resp.ReadCommandReuse", start, end, l.parent)
		parse = append(parse, float64(end.Sub(start))/n)
		allocs = float64(ms1.Mallocs-ms0.Mallocs) / n

		w := resp.NewWriter(bufio.NewWriterSize(io.Discard, 64<<10))
		start = time.Now()
		for i, o := range l.stream {
			switch {
			case o.kind == opGet && l.values[i] == nil:
				w.WriteNull()
			case o.kind == opGet:
				w.WriteBulk(l.values[i])
			case o.kind == opDel:
				w.WriteInt(int64(b2i(o.del)))
			default:
				w.WriteSimple("OK")
			}
		}
		w.Flush()
		end = time.Now()
		l.spans.child("resp.Writer", start, end, l.parent)
		reply = append(reply, float64(end.Sub(start))/n)
	}
	parseNS, replyNS = median(parse), median(reply)
	r := l.b.rep
	r.metric("resp.parse_ns_per_cmd", parseNS, "ns")
	r.metric("resp.parse_allocs_per_cmd", allocs, "count")
	r.metric("resp.reply_ns_per_cmd", replyNS, "ns")
	return parseNS, replyNS
}

// serverLayer serves the workload from nbtried's own server package
// over an in-memory listener — the daemon's code minus the socket — and
// returns the per-op batch time of the same closed loop.
func (l *ladder) serverLayer() (float64, error) {
	defer l.layer("server")()
	cfg := server.Config{}
	dir := ""
	if l.w.persistFlags != nil {
		var err error
		if dir, err = os.MkdirTemp(l.b.tmpRoot, "inproc-"); err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		cfg.Persist = server.PersistConfig{Dir: dir, AOF: true, Fsync: persist.SyncEverySec}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return 0, err
	}
	ln := newMemListener()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
		freeMemory()
	}()

	var loaders [2]*loader
	for i := range loaders {
		c, err := ln.dial()
		if err != nil {
			return 0, err
		}
		defer c.Close()
		loaders[i] = newLoader(l.w, newModel(l.w, l.b.opts.seed, uint32(i)), c, nil, nil)
	}
	if err := sendEach(loaders[:], (*loader).prefillOps); err != nil {
		return 0, fmt.Errorf("in-process prefill: %w", err)
	}
	sh := &loadShared{kick: make(chan struct{}, 1)}
	waitConns := sh.drive(loaders[:])
	sh.warm()
	start := time.Now()
	sh.start.Store(start.UnixNano())
	sh.phase.Store(phMeasure)
	time.Sleep(time.Duration(l.b.opts.seconds) * time.Second / 2)
	sh.phase.Store(phStop)
	errs := waitConns()
	l.spans.child("server.inproc", start, time.Now(), l.parent)
	var ns, n int64
	for _, dr := range loaders {
		ns += dr.stats.batchNS[phMeasure]
		n += dr.stats.ops[phMeasure]
		r := l.b.rep
		r.Result.Attempted += dr.stats.attempted
		r.Result.Failed += dr.stats.failed
		for _, f := range dr.stats.failures {
			r.Failures = append(r.Failures, "in-process server: "+f)
		}
	}
	if err := errors.Join(errs...); err != nil {
		l.b.fail("in-process server: %v", err)
	}
	return float64(ns) / float64(max(1, n)), nil
}

// p50 estimates the median of timer-resolution samples as the mean of
// the central tenth of the sorted samples: a plain median of integer
// nanoseconds repeats exactly from run to run and hides small shifts.
func p50(s []float64) float64 {
	slices.Sort(s)
	lo, hi := len(s)*45/100, len(s)*55/100+1
	sum := 0.0
	for _, v := range s[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

// shardedLayer times nbtrie.ShardedMap — the server's backing map at
// the daemon's shard count — and, on the same prefilled map, the
// persist layer's dump and recovery.
func (l *ladder) shardedLayer() (float64, error) {
	defer l.layer("sharded")()
	sm, err := nbtrie.NewShardedMapSpan[[]byte](keyerWidth, l.shards, defaultSpan)
	if err != nil {
		return 0, err
	}
	l.fill(sm)
	move := func(a, b uint64) { sm.MoveKey(a, b) }
	p := l.probes("sharded", sm, move)
	r := l.b.rep
	r.metric("sharded.load_ns_p50", p50(p["load"]), "ns")
	r.metric("sharded.store_ns_p50", p50(p["store"]), "ns")
	r.metric("sharded.delete_ns_p50", p50(p["delete"]), "ns")
	r.metric("sharded.movekey_ns_p50", p50(p["move"]), "ns")

	counts := make([]int, sm.Shards())
	for _, k := range l.keys {
		s, _ := sm.ShardOf(k)
		counts[s]++
	}
	busiest := 0
	for _, c := range counts {
		busiest = max(busiest, c)
	}
	r.metric("sharded.max_shard_share", float64(busiest)/float64(len(l.keys)), "ratio")

	if err := l.persistDump(sm); err != nil {
		return 0, err
	}
	perOp := l.replay(sm, move)
	sm = nil
	freeMemory()
	return perOp, nil
}

// engineLayer times one nbtrie.Map at the keyer's width: the engine
// under the sharded front-end, with the same probes and stream.
func (l *ladder) engineLayer() float64 {
	defer l.layer("engine")()
	m, err := nbtrie.NewMap[[]byte](keyerWidth)
	if err != nil {
		panic(err) // keyerWidth is a valid width
	}
	l.fill(m)
	move := func(a, b uint64) { m.ReplaceKey(a, b) }
	p := l.probes("engine", m, move)
	r := l.b.rep
	r.metric("engine.load_ns_p50", p50(p["load"]), "ns")
	r.metric("engine.load_ns_p99", quantile(p["load"], 0.99), "ns")
	r.metric("engine.store_ns_p50", p50(p["store"]), "ns")
	r.metric("engine.delete_ns_p50", p50(p["delete"]), "ns")
	r.metric("engine.replace_ns_p50", p50(p["move"]), "ns")

	// Allocation and depth of overwriting stores, untimed per call.
	rng := rand.New(rand.NewPCG(l.b.opts.seed, 11))
	es0 := m.EngineStats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < probeOps; i++ {
		m.Store(l.prefill[rng.IntN(len(l.prefill))], l.pool[i%valuePool])
	}
	runtime.ReadMemStats(&ms1)
	es1 := m.EngineStats()
	r.metric("engine.store_bytes_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/probeOps, "B")
	r.metric("engine.store_allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/probeOps, "count")
	r.metric("engine.depth_mean", float64(es1.DepthSum-es0.DepthSum)/float64(max(1, es1.DepthSamples-es0.DepthSamples)), "levels")

	perOp := l.replay(m, move)
	m = nil
	freeMemory()
	return perOp
}

// expiryLayer times expiry.Index, armed as the workload arms it:
// every prefilled key on ttl-churn, none elsewhere.
func (l *ladder) expiryLayer() float64 {
	defer l.layer("expiry")()
	x, err := expiry.New(keyerWidth, l.shards)
	if err != nil {
		panic(err) // valid width and shard count
	}
	now := time.Now().UnixMilli()
	far := now + longTTLSeconds*1000
	if l.prefillTTL {
		for _, k := range l.prefill {
			x.Set(k, far)
		}
	}
	var gets []uint64
	for i, o := range l.stream {
		if o.kind == opGet && len(gets) < probeOps {
			gets = append(gets, l.keys[i])
		}
	}
	r := l.b.rep
	lookup := p50(l.probe("expiry.Lookup", len(gets), func(i int) { x.Lookup(gets[i]) }, nil))
	r.metric("expiry.lookup_ns_p50", lookup, "ns")
	rng := rand.New(rand.NewPCG(l.b.opts.seed, 13))
	set := l.probe("expiry.Set", probeOps, func(int) { x.Set(l.prefill[rng.IntN(len(l.prefill))], far) }, nil)
	r.metric("expiry.set_ns_p50", p50(set), "ns")
	if !l.prefillTTL {
		x, _ = expiry.New(keyerWidth, l.shards)
	}

	// One reaper pass per 1000 workload ops: the pass finds the 1 s
	// keys those ops armed already due, and purges them.
	due := l.w.mix[opSetexShort] * 10
	purge := func(k uint64, e expiry.Entry) bool { return x.Remove(k, e) }
	passes := make([]float64, 0, reapPasses)
	slot := uint32(0)
	for p := 0; p < reapPasses; p++ {
		for j := 0; j < due; j++ {
			x.Set(trieKey(reservedBase+slot), now-1)
			slot = (slot + 1) % reservedKeys
		}
		t := time.Now()
		x.Reap(now, purge)
		end := time.Now()
		l.spans.child("expiry.Reap", t, end, l.parent)
		passes = append(passes, max(0, float64(end.Sub(t))-l.timerNS)/1e3)
	}
	r.metric("expiry.reap_pass_us_p50", p50(passes), "us")
	return lookup
}

// persistDump times a dump of the prefilled map through the persist
// layer and a recovery from it plus the stream's AOF records.
func (l *ladder) persistDump(sm *nbtrie.ShardedMap[[]byte]) error {
	defer l.layer("persist.dump")()
	dir, err := os.MkdirTemp(l.b.tmpRoot, "dump-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reps := 3
	if len(l.prefill) > 100_000 {
		reps = 1
	}
	var saves, loads []float64
	for rep := 0; rep < reps; rep++ {
		name := persist.BaseName(uint64(rep + 1))
		snap := sm.Snapshot()
		start := time.Now()
		err := persist.SaveDump(dir, name, func(fn func(k, v []byte, expireAtMS uint64) bool) {
			var kb []byte
			for k, v := range snap.All() {
				kb = keyer.DecodeAppend(kb[:0], k)
				if !fn(kb, v, 0) {
					return
				}
			}
		})
		end := time.Now()
		if err != nil {
			return fmt.Errorf("ladder dump: %w", err)
		}
		l.spans.child("persist.SaveDump", start, end, l.parent)
		saves = append(saves, float64(end.Sub(start).Microseconds())/1e3)

		fresh, err := nbtrie.NewShardedMapSpan[[]byte](keyerWidth, l.shards, defaultSpan)
		if err != nil {
			return err
		}
		start = time.Now()
		err = persist.LoadDump(dir, name, func(k, v []byte, _ uint64) error {
			tk, err := keyer.Encode(k)
			if err != nil {
				return err
			}
			fresh.Store(tk, bytes.Clone(v))
			return nil
		})
		end = time.Now()
		if err != nil {
			return fmt.Errorf("ladder recovery: %w", err)
		}
		if fresh.Len() != sm.Len() {
			return fmt.Errorf("ladder recovery: %d keys, dumped %d", fresh.Len(), sm.Len())
		}
		l.spans.child("persist.LoadDump", start, end, l.parent)
		loads = append(loads, float64(end.Sub(start).Microseconds())/1e3)
		os.Remove(filepath.Join(dir, name))
	}
	l.b.rep.metric("persist.bgsave_ms", median(saves), "ms")
	l.b.rep.metric("persist.recover_ms", median(loads), "ms")
	return nil
}

// persistAOF appends the stream's write records to an AOF segment the
// way the server does, committing at every batch boundary, and returns
// the append cost per record.
func (l *ladder) persistAOF() (float64, error) {
	defer l.layer("persist.aof")()
	dir, err := os.MkdirTemp(l.b.tmpRoot, "aof-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	a, err := persist.OpenAOF(filepath.Join(dir, persist.IncrName(1)), persist.SyncEverySec)
	if err != nil {
		return 0, err
	}
	var appendNS time.Duration
	var records int
	var commits []float64
	var kb, db []byte
	deadline := strconv.AppendInt(nil, time.Now().UnixMilli()+longTTLSeconds*1000, 10)
	for i, o := range l.stream {
		kb = appendKey(kb[:0], o.key)
		t := time.Now()
		switch o.kind {
		case opGet:
		case opDel:
			a.Append([]byte("DEL"), kb)
			records++
		case opRename:
			db = appendKey(db[:0], o.dst)
			a.Append([]byte("RENAME"), kb, db)
			records++
		case opSet:
			a.Append([]byte("SET"), kb, l.values[i])
			records++
		default:
			a.Append([]byte("SET"), kb, l.values[i])
			a.Append([]byte("PEXPIREAT"), kb, deadline)
			records += 2
		}
		appendNS += time.Since(t)
		if i%pipelineDepth == pipelineDepth-1 {
			t := time.Now()
			a.Commit()
			end := time.Now()
			commits = append(commits, float64(end.Sub(t).Nanoseconds())/1e3)
			if len(commits)%spanEvery == 0 {
				l.spans.child("persist.Commit", t, end, l.parent)
			}
		}
	}
	size := a.Size()
	if err := a.Close(); err != nil {
		return 0, fmt.Errorf("ladder AOF: %w", err)
	}
	r := l.b.rep
	perRecord := float64(appendNS) / float64(max(1, records))
	l.recPerOp = float64(records) / float64(len(l.stream))
	r.metric("persist.append_ns_per_record", perRecord, "ns")
	r.metric("persist.commit_us_p50", p50(commits), "us")
	r.metric("persist.commit_us_p99", quantile(commits, 0.99), "us")
	r.metric("persist.bytes_per_user_byte", float64(size)/float64(max(1, l.userBytes)), "B/B")
	return perRecord, nil
}
