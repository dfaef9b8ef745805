// Command perfbench is nbtried's end-to-end benchmark. One run starts a
// fresh nbtried, drives it over loopback with two pipelined closed-loop
// connections on one of three workloads, checks every reply against a
// client-side model, and prints the metrics by name with their units.
// With -trace 1 it instead prints the per-layer metrics: batch spans on
// the wire, the daemon's INFO, /metrics, /proc and gctrace, and timed
// calls into each layer's public functions on the same generated inputs.
//
//	bash perfbench/run.sh --workload read-1m --seed 1 --seconds 10 --trace 0
//
// run.sh builds this command and cmd/nbtried from the checkout and runs
// it from the repository root; see README.md for the workloads and the
// definition of every metric.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload  *workload
	seed      uint64
	seconds   int
	trace     bool
	root      string // repository checkout: reads and writes stay under it
	daemonBin string
	plant     *faults // self-tests only
	instances int     // overrides the workload's count when > 0
}

// runLimit bounds one run: past it the run is abandoned, its daemons
// killed and its files removed.
const runLimit = 170 * time.Second

func mainCode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wname   = fs.String("workload", "", "workload: read-1m, write-aof or ttl-churn")
		seed    = fs.Uint64("seed", 1, "workload seed")
		seconds = fs.Int("seconds", 10, "measured seconds")
		trace   = fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		root    = fs.String("root", ".", "repository checkout")
		daemon  = fs.String("daemon", "", "nbtried binary built from the checkout")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*wname)
	if err != nil || *seconds < 1 || *daemon == "" || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (read-1m|write-aof|ttl-churn), -seconds >= 1, -trace 0|1 and -daemon: %v\n", err)
		return 2
	}
	opts := options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, root: *root, daemonBin: *daemon}

	// A signal or an overrun ends the run on the spot: every daemon it
	// started is killed and waited for, and its files are removed.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		if s, ok := <-sigs; ok {
			abandon(130, fmt.Sprintf("stopped by %v", s))
		}
	}()
	watchdog := time.AfterFunc(runLimit, func() { abandon(4, fmt.Sprintf("run exceeded %v", runLimit)) })
	defer watchdog.Stop()

	rep, err := run(opts)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.print(stdout)
	if err := rep.save(filepath.Join(opts.root, ".bench_build", "results")); err != nil {
		fmt.Fprintln(stderr, "perfbench: saving result:", err)
	}
	if !rep.Result.Correct {
		return 3
	}
	return 0
}

// metricVal is one printed metric.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// report is everything a run records; only Result is the contract line.
type report struct {
	Workload   string               `json:"workload"`
	Seed       uint64               `json:"seed"`
	Traced     bool                 `json:"traced"`
	Provenance map[string]any       `json:"provenance"`
	Result     result               `json:"result"`
	Extra      map[string]metricVal `json:"extra"`   // report-only metrics
	Samples    map[string]int64     `json:"samples"` // sample count behind each latency
	Failures   []string             `json:"failures,omitempty"`
	Spans      []spanSummary        `json:"spans,omitempty"`
}

func (r *report) metric(name string, v float64, unit string) {
	r.Result.Metrics[name] = metricVal{v, unit}
}

func (r *report) extra(name string, v float64, unit string) {
	r.Extra[name] = metricVal{v, unit}
}

func (r *report) print(w io.Writer) {
	prov, _ := json.Marshal(r.Provenance)
	fmt.Fprintf(w, "perfbench %s seed=%d traced=%v\nprovenance %s\n", r.Workload, r.Seed, r.Traced, prov)
	for _, f := range r.Failures {
		fmt.Fprintln(w, "FAIL", f)
	}
	printSorted := func(prefix string, m map[string]metricVal) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		slices.Sort(names)
		for _, n := range names {
			fmt.Fprintf(w, "%s %-34s %14.6g %s", prefix, n, m[n].Value, m[n].Unit)
			if c, ok := r.Samples[n]; ok {
				fmt.Fprintf(w, "  (n=%d)", c)
			}
			fmt.Fprintln(w)
		}
	}
	printSorted("metric", r.Result.Metrics)
	printSorted("extra ", r.Extra)
	for _, s := range r.Spans {
		fmt.Fprintf(w, "span   %-34s %10d spans %12.3f ms\n", s.Name, s.Count, s.TotalMS)
	}
	line, _ := json.Marshal(r.Result)
	fmt.Fprintf(w, "%s\n", line)
}

// save writes the full report next to the other runs' results.
func (r *report) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", r.Workload, r.Seed, b2i(r.Traced), time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// warmupOps is the command count run before measuring: caches, the
// daemon's heap and the model's equilibria settle first.
const warmupOps = 100_000

// bench is one run's live state.
type bench struct {
	opts    options
	w       *workload
	rep     *report
	d       *daemon
	ctl     *control
	models  [2]*model
	loaders [2]*loader
	spans   *spanStore
	tmpRoot string
}

func (b *bench) fail(format string, args ...any) {
	b.rep.Result.Failed++
	if len(b.rep.Failures) < 2*maxFailures {
		b.rep.Failures = append(b.rep.Failures, fmt.Sprintf(format, args...))
	}
}

// closeDaemon closes the connections and kills the daemon, if any.
func (b *bench) closeDaemon() {
	for _, dr := range b.loaders {
		if dr != nil {
			dr.conn.Close()
		}
	}
	if b.ctl != nil {
		b.ctl.close()
		b.ctl = nil
	}
	if b.d != nil {
		b.d.kill()
		b.d = nil
	}
}

func run(opts options) (*report, error) {
	w := opts.workload
	b := &bench{opts: opts, w: w}
	b.rep = &report{
		Workload: w.name, Seed: opts.seed, Traced: opts.trace,
		Result:  result{Correct: true, Metrics: map[string]metricVal{}},
		Extra:   map[string]metricVal{},
		Samples: map[string]int64{},
	}
	// Every file of the run lives in one fresh dir, removed on return.
	tmp := filepath.Join(opts.root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	var err error
	if b.tmpRoot, err = os.MkdirTemp(tmp, "run-"); err != nil {
		return nil, err
	}
	registerDir(b.tmpRoot)
	defer removeDir(b.tmpRoot)
	defer b.closeDaemon()
	if opts.trace {
		b.spans = newSpanStore()
	}
	b.rep.Provenance = provenance(opts)
	b.rep.Provenance["loadavg_before"] = loadAvg()
	host0 := hostCPU()

	// Each run starts several daemons in turn. Each one is set up (exec
	// through listening through the end of the prefill), warmed up and
	// measured for its share of the run's seconds; endToEnd takes the
	// medians. One instance per run is not a steady sample: thread
	// placement and host steal move a single instance by up to a third.
	reps := w.instances
	if opts.instances > 0 {
		reps = opts.instances
	}
	if opts.trace {
		reps = 1
	}
	slice := time.Duration(opts.seconds) * time.Second / time.Duration(reps)
	var inst []instance
	var win *window
	for r := 0; r < reps; r++ {
		b.closeDaemon()
		runtime.GC()
		took, err := b.setup()
		if err != nil {
			return nil, err
		}
		b.rep.Provenance["daemon_flags"] = strings.Join(b.d.flags, " ")
		if win, err = b.load(slice); err != nil {
			return nil, err
		}
		if err := b.endChecks(win); err != nil {
			return nil, err
		}
		if !opts.trace {
			inst = append(inst, b.instanceMetrics(took, win))
			b.collect()
		}
	}
	b.closeDaemon()
	b.rep.Provenance["loadavg_after"] = loadAvg()
	// Idle and steal over the daemon part of the run: a noisy neighbour
	// shows as steal, an unsaturated closed loop as idle.
	b.rep.Provenance["host_idle_pct"], b.rep.Provenance["host_steal_pct"] = hostShares(host0, hostCPU())

	if !opts.trace {
		b.endToEnd(inst)
		return b.rep, nil
	}
	if err := b.perLayer(win); err != nil {
		return nil, err
	}
	b.collect()
	b.rep.Spans = b.spans.summary()
	traceDir := filepath.Join(opts.root, ".bench_build", "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, opts.seed))
	if err := b.spans.writeFile(path); err != nil {
		return nil, err
	}
	b.rep.Provenance["trace_file"] = path
	b.rep.Provenance["spans_dropped"] = b.spans.dropped
	return b.rep, nil
}

// setup starts a daemon in a fresh dir on a random port and prefills it
// over two connections; it returns the set-up time.
func (b *bench) setup() (time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(b.opts.daemonBin, b.tmpRoot, b.w.persistFlags, b.w.persistFlags != nil, b.opts.trace)
	if err != nil {
		return 0, err
	}
	b.d = d
	for i := range b.loaders {
		c, err := d.dial()
		if err != nil {
			return 0, err
		}
		b.models[i] = newModel(b.w, b.opts.seed, uint32(i))
		b.loaders[i] = newLoader(b.w, b.models[i], c, b.spans, b.opts.plant)
	}
	err = sendEach(b.loaders[:], (*loader).prefillOps)
	took := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("prefill: %w", err)
	}
	if b.ctl, err = d.control(); err != nil {
		return 0, err
	}
	return took, nil
}

// window is what the measured part of a run observed.
type window struct {
	start, end   time.Time
	phaseTime    [numPhases]time.Duration
	serverCPU    time.Duration
	clientCPU    time.Duration
	diskBytes    int64
	info0, info1 map[string]string
	hist0, hist1 map[string]*promHist
	bgsaves      []float64 // ms, client-observed
	rssBytes     int64
	liveKeys     int64
	recoverMS    float64   // write-aof: restart exec → listening
	sliceSteal   []float64 // host steal share in each slice, % (untraced)
	gc           *gcLog
}

func (win *window) ops(b *bench) (n int64) {
	for _, dr := range b.loaders {
		n += dr.stats.ops[phMeasure] + dr.stats.ops[phTraced]
	}
	return n
}

// load runs warm-up and the measured window on the set-up daemon.
func (b *bench) load(measure time.Duration) (*window, error) {
	win := &window{gc: b.d.gc}
	sh := &loadShared{kick: make(chan struct{}, 1)}
	waitConns := sh.drive(b.loaders[:])
	// BGSAVE every bgsaveEvery acknowledged writes, from the control
	// connection; a trigger that lands while a dump runs waits for it.
	saverDone := make(chan struct{})
	stopSaver := make(chan struct{})
	var saverErr error
	go func() {
		defer close(saverDone)
		if b.w.bgsaveEvery == 0 {
			return
		}
		for {
			select {
			case <-stopSaver:
				return
			case <-sh.kick:
			}
			took, err := b.ctl.bgsave()
			if err != nil {
				saverErr = err
				return
			}
			if sh.phase.Load() != phWarm {
				win.bgsaves = append(win.bgsaves, float64(took.Microseconds())/1e3)
			}
		}
	}()
	var connErr []error
	stop := func() {
		sh.phase.Store(phStop)
		connErr = waitConns()
		close(stopSaver)
		<-saverDone
	}
	sh.warm()
	pid := b.d.pid()
	cpu0, err := procCPU(pid)
	if err != nil {
		stop()
		return nil, err
	}
	disk0, _ := procField(pid, "io", "write_bytes")
	if b.opts.trace {
		if win.info0, err = b.ctl.info(); err == nil {
			win.hist0, err = b.d.scrapeHists()
		}
		if err != nil {
			stop()
			return nil, err
		}
	}
	gen0, host0 := selfCPU(), hostCPU()
	win.start = time.Now()
	sh.start.Store(win.start.UnixNano())
	if !b.opts.trace {
		// Read the host's steal at every slice boundary.
		win.sliceSteal = make([]float64, max(1, int(measure/sliceDur)))
		prev := host0
		sh.phase.Store(phMeasure)
		for i := range win.sliceSteal {
			time.Sleep(time.Until(win.start.Add(time.Duration(i+1) * sliceDur)))
			cur := hostCPU()
			_, win.sliceSteal[i] = hostShares(prev, cur)
			prev = cur
		}
		win.phaseTime[phMeasure] = time.Since(win.start)
	} else {
		// Alternate untraced and traced slices so both see the same
		// daemon state; their throughputs give the tracing overhead.
		const slices = 4
		for s := 0; s < slices; s++ {
			ph := phMeasure + int32(s%2)
			t := time.Now()
			sh.phase.Store(ph)
			time.Sleep(measure / slices)
			win.phaseTime[ph] += time.Since(t)
		}
	}
	win.end = time.Now()
	stop()
	win.clientCPU = selfCPU() - gen0
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	win.serverCPU = cpu1 - cpu0
	disk1, _ := procField(pid, "io", "write_bytes")
	win.diskBytes = disk1 - disk0
	if b.opts.trace {
		if win.info1, err = b.ctl.info(); err == nil {
			win.hist1, err = b.d.scrapeHists()
		}
		if err != nil {
			return nil, err
		}
	}
	if saverErr != nil {
		b.fail("BGSAVE: %v", saverErr)
	}
	for i, err := range connErr {
		if err != nil {
			b.fail("connection %d: %v", i, err)
		}
	}
	return win, nil
}

// endChecks reads the end-of-run state, checks the key count against
// the model and, on write-aof, restarts the daemon and reads every key
// back.
func (b *bench) endChecks(win *window) error {
	rss, err := procField(b.d.pid(), "status", "VmRSS")
	if err != nil {
		return err
	}
	win.rssBytes = rss * 1024
	if win.liveKeys, err = b.ctl.dbsize(); err != nil {
		return err
	}
	want := int64(b.models[0].liveCount() + b.models[1].liveCount())
	if b.w.mix[opSetexShort] == 0 && win.liveKeys != want {
		// ttl-churn's 1 s keys expire on the daemon's clock, so only
		// the other workloads have an exact key count.
		b.fail("DBSIZE %d, model has %d live keys", win.liveKeys, want)
	}
	if !b.w.restartCheck {
		return nil
	}
	if b.opts.plant != nil && b.opts.plant.loseWrite {
		k := b.models[0].live[0]
		if _, _, err := b.ctl.do("DEL", string(appendKey(nil, k))); err != nil {
			return err
		}
	}
	for _, dr := range b.loaders {
		dr.conn.Close()
	}
	b.ctl.close()
	b.ctl = nil
	if err := b.d.stop(60 * time.Second); err != nil {
		b.fail("graceful shutdown: %v", err)
		return nil
	}
	if err := b.d.exec(b.opts.daemonBin, b.w.persistFlags, true, false); err != nil {
		b.fail("restart: %v", err)
		return nil
	}
	win.recoverMS = float64(b.d.ready.Microseconds()) / 1e3
	var readers [2]*loader
	for i, dr := range b.loaders {
		c, err := b.d.dial()
		if err != nil {
			return err
		}
		defer c.Close()
		readers[i] = newLoader(b.w, dr.m, c, nil, nil)
	}
	if err := sendEach(readers[:], (*loader).readBackOps); err != nil {
		b.fail("read-back after restart: %v", err)
	}
	for _, rd := range readers {
		b.rep.Result.Attempted += rd.stats.attempted
		b.rep.Result.Failed += rd.stats.failed
		for _, f := range rd.stats.failures {
			b.rep.Failures = append(b.rep.Failures, "after restart: "+f)
		}
	}
	if b.ctl, err = b.d.control(); err != nil {
		return err
	}
	n, err := b.ctl.dbsize()
	if err != nil {
		return err
	}
	if n != want {
		b.fail("after restart DBSIZE %d, model has %d live keys", n, want)
	}
	return nil
}

// instance is one daemon instance's end-to-end figures.
type instance struct {
	steal   float64 // host steal share over the measured window, %
	m       map[string]float64
	samples map[string]int64
	extra   map[string]float64
}

// instanceMetrics computes one instance's end-to-end figures. Its
// throughput and latencies come from the quieter half of its slices:
// those that lost the least CPU time to other tenants of the host.
func (b *bench) instanceMetrics(setup time.Duration, win *window) instance {
	order := make([]int, len(win.sliceSteal))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(win.sliceSteal[x], win.sliceSteal[y]) })
	quiet := order[:(len(order)+1)/2]
	var reads, writes []float32
	var quietOps, userBytes int64
	var steal float64
	for _, k := range quiet {
		for _, dr := range b.loaders {
			if k < len(dr.stats.slices) {
				sl := dr.stats.slices[k]
				reads = append(reads, sl.readLat...)
				writes = append(writes, sl.writeLat...)
				quietOps += sl.ops
			}
		}
		steal += win.sliceSteal[k] / float64(len(quiet))
	}
	for _, dr := range b.loaders {
		userBytes += dr.stats.userBytes
	}
	ops := win.ops(b)
	in := instance{
		steal: steal,
		m: map[string]float64{
			"setup_s":              setup.Seconds(),
			"throughput_ops_s":     float64(quietOps) / (float64(len(quiet)) * sliceDur.Seconds()),
			"read_p50_us":          quantile(reads, 0.50),
			"read_p99_us":          quantile(reads, 0.99),
			"write_p50_us":         quantile(writes, 0.50),
			"write_p99_us":         quantile(writes, 0.99),
			"server_cpu_us_per_op": float64(win.serverCPU.Microseconds()) / float64(ops),
			"rss_bytes_per_key":    float64(win.rssBytes) / float64(max(1, win.liveKeys)),
		},
		samples: map[string]int64{
			"read_p50_us": int64(len(reads)), "read_p99_us": int64(len(reads)),
			"write_p50_us": int64(len(writes)), "write_p99_us": int64(len(writes)),
			"throughput_ops_s": quietOps,
		},
		extra: map[string]float64{"host_steal_pct": steal},
	}
	if b.w.persistFlags != nil {
		in.extra["disk_bytes_per_user_byte"] = float64(win.diskBytes) / float64(max(1, userBytes))
		in.extra["bgsaves_in_window"] = float64(len(win.bgsaves))
		in.extra["persist.daemon_recover_ms"] = win.recoverMS
	}
	return in
}

// collect adds the current connections' tallies to the run's.
func (b *bench) collect() {
	for _, dr := range b.loaders {
		b.rep.Result.Attempted += dr.stats.attempted
		b.rep.Result.Failed += dr.stats.failed
		b.rep.Failures = append(b.rep.Failures, dr.stats.failures...)
	}
	b.rep.Result.Correct = b.rep.Result.Failed == 0
	b.rep.extra("failed_op_ratio", float64(b.rep.Result.Failed)/float64(max(1, b.rep.Result.Attempted)), "ratio")
}

var e2eUnits = map[string]string{
	"setup_s": "s", "throughput_ops_s": "1/s",
	"read_p50_us": "us", "read_p99_us": "us", "write_p50_us": "us", "write_p99_us": "us",
	"server_cpu_us_per_op": "us", "rss_bytes_per_key": "B",
	"disk_bytes_per_user_byte": "B/B", "bgsaves_in_window": "count", "persist.daemon_recover_ms": "ms",
	"host_steal_pct": "%",
}

// endToEnd reports each end-to-end metric as its median over the
// quieter half of the instances: those whose chosen slices lost the
// least CPU time to other tenants of the host (steal, from /proc/stat).
// Steal is outside the program and comes in bursts of seconds to
// minutes; an instance hit by it measures the neighbour rather than
// nbtried. setup_s, which runs outside the windows, is the median over
// every instance. All instances' values stay in the provenance.
func (b *bench) endToEnd(inst []instance) {
	r := b.rep
	quiet := slices.Clone(inst)
	slices.SortStableFunc(quiet, func(x, y instance) int { return cmp.Compare(x.steal, y.steal) })
	quiet = quiet[:(len(quiet)+1)/2]
	pick := func(set []instance, name string) []float64 {
		var vs []float64
		for _, in := range set {
			if v, ok := in.m[name]; ok {
				vs = append(vs, v)
			} else if v, ok := in.extra[name]; ok {
				vs = append(vs, v)
			}
		}
		return vs
	}
	for name, unit := range e2eUnits {
		set := quiet
		if name == "setup_s" {
			set = inst
		}
		vs := pick(set, name)
		if len(vs) == 0 {
			continue
		}
		if _, ok := inst[0].m[name]; ok {
			r.metric(name, median(vs), unit)
		} else {
			r.extra(name, median(vs), unit)
		}
		r.Provenance["each."+name] = pick(inst, name)
	}
	for _, in := range quiet {
		for n, c := range in.samples {
			r.Samples[n] += c
		}
	}
	r.Samples["setup_s"] = int64(len(inst))
	r.Provenance["instances_used"] = len(quiet)
}

// provenance records what the numbers depend on besides the code.
func provenance(opts options) map[string]any {
	gmp := runtime.NumCPU()
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		fmt.Sscan(v, &gmp)
	}
	return map[string]any{
		"seed":                 opts.seed,
		"workload":             opts.workload.name,
		"seconds":              opts.seconds,
		"commit":               gitCommit(opts.root),
		"source_sha256":        sourceHash(opts.root),
		"go_version":           runtime.Version(),
		"nproc":                runtime.NumCPU(),
		"gomaxprocs_generator": runtime.GOMAXPROCS(0),
		"gomaxprocs_daemon":    gmp,
		"connections":          2,
		"pipeline_depth":       pipelineDepth,
	}
}

// selfCPU is the generator's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
