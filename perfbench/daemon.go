package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one nbtried process started for a run.
type daemon struct {
	cmd         *exec.Cmd
	dir         string // private temp dir: port file, data dir
	flags       []string
	addr        string
	metricsAddr string
	started     time.Time
	ready       time.Duration // exec → listening
	exited      chan struct{}
	waitErr     error
	gc          *gcLog
	stdoutMu    sync.Mutex
	stdout      []string
}

// live tracks what a run must clean up if it is abandoned (signal or
// watchdog): running daemons and the run's temp dirs.
var live struct {
	sync.Mutex
	daemons map[*daemon]bool
	dirs    map[string]bool
}

func registerDir(dir string) {
	live.Lock()
	defer live.Unlock()
	if live.dirs == nil {
		live.dirs = map[string]bool{}
	}
	live.dirs[dir] = true
}

func removeDir(dir string) {
	live.Lock()
	delete(live.dirs, dir)
	live.Unlock()
	os.RemoveAll(dir)
}

// abandon kills every live daemon, waits for each, removes the run's
// files and exits with code.
func abandon(code int, why string) {
	live.Lock()
	defer live.Unlock()
	for d := range live.daemons {
		d.cmd.Process.Kill()
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
		}
	}
	for dir := range live.dirs {
		os.RemoveAll(dir)
	}
	fmt.Fprintln(os.Stderr, "perfbench:", why)
	os.Exit(code)
}

// startDaemon execs bin in a fresh temp dir under tmpRoot with default
// flags plus extra (dataDir adds -dir), and waits until it listens.
// traced adds the /metrics listener and GODEBUG=gctrace=1.
func startDaemon(bin, tmpRoot string, extra []string, dataDir, traced bool) (*daemon, error) {
	dir, err := os.MkdirTemp(tmpRoot, "nbtried-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir}
	if err := d.exec(bin, extra, dataDir, traced); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// exec starts the process on d.dir and waits for its port file. A
// restart calls it again on the same dir.
func (d *daemon) exec(bin string, extra []string, dataDir, traced bool) error {
	portFile := filepath.Join(d.dir, "port")
	os.Remove(portFile)
	flags := []string{"-addr", "127.0.0.1:0", "-port-file", portFile}
	if dataDir {
		flags = append(flags, "-dir", filepath.Join(d.dir, "data"))
	}
	flags = append(flags, extra...)
	if traced {
		flags = append(flags, "-metrics-addr", "127.0.0.1:0")
	}
	d.flags = flags
	d.exited = make(chan struct{})
	d.cmd = exec.Command(bin, flags...)
	d.cmd.Env = os.Environ()
	if traced {
		d.cmd.Env = append(d.cmd.Env, "GODEBUG=gctrace=1")
	}
	// The kernel kills the daemon if the benchmark dies first.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return err
	}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return err
	}
	d.gc = &gcLog{}
	d.started = time.Now()
	live.Lock()
	if live.daemons == nil {
		live.daemons = map[*daemon]bool{}
	}
	err = d.cmd.Start()
	if err == nil {
		live.daemons[d] = true
	}
	live.Unlock()
	if err != nil {
		return err
	}
	var pipes sync.WaitGroup
	pipes.Add(2)
	go func() { defer pipes.Done(); d.gc.consume(stderr) }()
	go func() {
		defer pipes.Done()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			d.stdoutMu.Lock()
			d.stdout = append(d.stdout, sc.Text())
			d.stdoutMu.Unlock()
		}
	}()
	go func() {
		pipes.Wait() // Wait must not run before the pipes are drained
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	for {
		if b, err := os.ReadFile(portFile); err == nil && strings.HasSuffix(string(b), "\n") {
			d.addr = strings.TrimSpace(string(b))
			d.ready = time.Since(d.started)
			break
		}
		select {
		case <-d.exited:
			return fmt.Errorf("nbtried exited before listening: %v; stderr: %s", d.waitErr, d.gc.tail())
		case <-time.After(time.Millisecond):
		}
		if time.Since(d.started) > 60*time.Second {
			return errors.New("nbtried did not listen within 60s")
		}
	}
	// The metrics line is printed before the listener opens, but its
	// reader goroutine may not have caught up yet.
	for traced && d.metricsAddr == "" {
		d.stdoutMu.Lock()
		for _, l := range d.stdout {
			if a, ok := strings.CutPrefix(l, "nbtried: metrics on http://"); ok {
				d.metricsAddr = strings.TrimSuffix(a, "/metrics")
			}
		}
		d.stdoutMu.Unlock()
		if time.Since(d.started) > 60*time.Second {
			return errors.New("nbtried did not report its metrics address")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM and waits up to timeout for a clean exit.
func (d *daemon) stop(timeout time.Duration) error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	defer d.forget()
	select {
	case <-d.exited:
		return d.waitErr
	case <-time.After(timeout):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("nbtried did not shut down within %v", timeout)
	}
}

// forget drops an exited process from the abandon list.
func (d *daemon) forget() {
	live.Lock()
	delete(live.daemons, d)
	live.Unlock()
}

// kill ends the process if it runs, waits for it and removes its dir.
// Safe on every path, including a half-started daemon.
func (d *daemon) kill() {
	if d.cmd != nil && d.cmd.Process != nil {
		select {
		case <-d.exited:
		default:
			d.cmd.Process.Kill()
			<-d.exited
		}
		d.forget()
	}
	os.RemoveAll(d.dir)
}

func (d *daemon) dial() (net.Conn, error) {
	c, err := net.Dial("tcp", d.addr)
	if err != nil {
		return nil, err
	}
	c.(*net.TCPConn).SetNoDelay(true)
	return c, nil
}

// procCPU returns the process's user+system CPU time, from
// /proc/<pid>/stat (clock ticks of 10 ms: USER_HZ is 100 on Linux).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procField returns a numeric "name: value" field of /proc/<pid>/<file>
// (VmRSS in kB from status; write_bytes from io).
func procField(pid int, file, name string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", pid, file))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, name+":"); ok {
			return strconv.ParseInt(strings.Fields(v)[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/%s has no %s", pid, file, name)
}

// hostCPU returns the host's aggregate CPU time counters from the
// first line of /proc/stat: user, nice, system, idle, iowait, irq,
// softirq, steal (clock ticks).
func hostCPU() []int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var v []int64
	for _, f := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseInt(f, 10, 64)
		v = append(v, n)
	}
	return v
}

// hostShares returns the idle and steal shares of host CPU time
// between two hostCPU readings, in percent (-1 when unreadable).
func hostShares(a, b []int64) (idlePct, stealPct float64) {
	if len(a) < 8 || len(b) < 8 {
		return -1, -1
	}
	var total int64
	for i := 0; i < 8; i++ {
		total += b[i] - a[i]
	}
	if total <= 0 {
		return -1, -1
	}
	return 100 * float64(b[3]-a[3]) / float64(total), 100 * float64(b[7]-a[7]) / float64(total)
}

// loadAvg returns the 1-minute host load average.
func loadAvg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	v, _ := strconv.ParseFloat(strings.Fields(string(b))[0], 64)
	return v
}

// control is a side connection for INFO, DBSIZE and BGSAVE; it is not
// part of the measured load.
type control struct {
	c  net.Conn
	br *bufio.Reader
}

func (d *daemon) control() (*control, error) {
	c, err := d.dial()
	if err != nil {
		return nil, err
	}
	return &control{c: c, br: bufio.NewReader(c)}, nil
}

// do sends one command and returns its reply's type and payload.
func (c *control) do(args ...string) (byte, string, error) {
	var b []byte
	b = append(b, '*')
	b = strconv.AppendInt(b, int64(len(args)), 10)
	b = append(b, '\r', '\n')
	for _, a := range args {
		b = appendBulk(b, []byte(a))
	}
	if _, err := c.c.Write(b); err != nil {
		return 0, "", err
	}
	line, err := c.br.ReadString('\n')
	if err != nil {
		return 0, "", err
	}
	line = strings.TrimSuffix(line, "\r\n")
	if line == "" {
		return 0, "", errors.New("empty reply")
	}
	if line[0] != '$' {
		return line[0], line[1:], nil
	}
	n, err := strconv.Atoi(line[1:])
	if err != nil || n < 0 {
		return '$', "", err
	}
	body := make([]byte, n+2)
	if _, err := io.ReadFull(c.br, body); err != nil {
		return 0, "", err
	}
	return '$', string(body[:n]), nil
}

// info returns INFO's key:value fields.
func (c *control) info() (map[string]string, error) {
	_, body, err := c.do("INFO")
	if err != nil {
		return nil, err
	}
	m := map[string]string{}
	for _, l := range strings.Split(body, "\r\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && !strings.HasPrefix(l, "#") {
			m[k] = v
		}
	}
	return m, nil
}

func infoInt(m map[string]string, k string) int64 {
	v, _ := strconv.ParseInt(m[k], 10, 64)
	return v
}

func (c *control) dbsize() (int64, error) {
	typ, v, err := c.do("DBSIZE")
	if err != nil {
		return 0, err
	}
	if typ != ':' {
		return 0, fmt.Errorf("DBSIZE: %c%s", typ, v)
	}
	return strconv.ParseInt(v, 10, 64)
}

// bgsave starts a BGSAVE and waits for it to finish, returning its
// duration as the client sees it.
func (c *control) bgsave() (time.Duration, error) {
	start := time.Now()
	typ, v, err := c.do("BGSAVE")
	if err != nil {
		return 0, err
	}
	if typ != '+' {
		return 0, fmt.Errorf("BGSAVE: %c%s", typ, v)
	}
	for {
		_, body, err := c.do("INFO", "persistence")
		if err != nil {
			return 0, err
		}
		if strings.Contains(body, "rdb_bgsave_in_progress:0") {
			if !strings.Contains(body, "rdb_last_bgsave_status:ok") {
				return 0, fmt.Errorf("BGSAVE failed: %s", body)
			}
			return time.Since(start), nil
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *control) close() { c.c.Close() }

// promHist is one Prometheus histogram series: ascending upper bounds
// (seconds) and cumulative counts.
type promHist struct{ bounds, cum []float64 }

// scrapeHists fetches /metrics and returns its histogram series keyed
// by name plus labels without le, e.g. `x{cmd="get"}`.
func (d *daemon) scrapeHists() (map[string]*promHist, error) {
	resp, err := http.Get("http://" + d.metricsAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]*promHist{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		l := sc.Text()
		name, rest, ok := strings.Cut(l, "_bucket{")
		if !ok {
			continue
		}
		labels, val, _ := strings.Cut(rest, "} ")
		i := strings.Index(labels, `le="`)
		if i < 0 {
			continue
		}
		le := strings.TrimSuffix(labels[i+4:], `"`)
		key := name + "{" + strings.TrimSuffix(labels[:i], ",") + "}"
		bound, err1 := strconv.ParseFloat(le, 64)
		if le == "+Inf" {
			bound, err1 = inf, nil
		}
		n, err2 := strconv.ParseFloat(val, 64)
		if err1 != nil || err2 != nil {
			continue
		}
		h := out[key]
		if h == nil {
			h = &promHist{}
			out[key] = h
		}
		h.bounds = append(h.bounds, bound)
		h.cum = append(h.cum, n)
	}
	return out, sc.Err()
}

var inf = math.Inf(1)

// gcCycle is one GODEBUG=gctrace=1 line, stamped on arrival.
type gcCycle struct {
	at     time.Time
	stwMS  float64 // sweep-termination + mark-termination wall clock
	cpuMS  float64 // STW + assist + background mark CPU (idle marking excluded)
	liveMB float64 // live heap after marking
	procs  int
	raw    string
}

// gcLog collects the daemon's gctrace lines from its stderr and keeps
// the last other lines for error reports.
type gcLog struct {
	mu     sync.Mutex
	cycles []gcCycle
	other  []string
}

var gcLine = regexp.MustCompile(`^gc \d+ @[\d.]+s \d+%: ([\d.]+)\+[\d.]+\+([\d.]+) ms clock, ([\d.]+)\+([\d.]+)/([\d.]+)/[\d.]+\+([\d.]+) ms cpu, [\d.]+->[\d.]+->([\d.]+) MB.* (\d+) P`)

func (g *gcLog) consume(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		l := sc.Text()
		now := time.Now()
		m := gcLine.FindStringSubmatch(l)
		g.mu.Lock()
		if m == nil {
			if len(g.other) < 64 {
				g.other = append(g.other, l)
			}
		} else {
			f := func(i int) float64 { v, _ := strconv.ParseFloat(m[i], 64); return v }
			p, _ := strconv.Atoi(m[8])
			g.cycles = append(g.cycles, gcCycle{at: now, stwMS: f(1) + f(2),
				cpuMS: f(3) + f(4) + f(5) + f(6), liveMB: f(7), procs: p})
		}
		g.mu.Unlock()
	}
	io.Copy(io.Discard, r)
}

func (g *gcLog) tail() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return strings.Join(g.other, "\n")
}

// window returns the cycles that arrived in [from, to] and the last
// cycle before to (for the live heap when no cycle ran in the window).
func (g *gcLog) window(from, to time.Time) (in []gcCycle, last *gcCycle) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range g.cycles {
		c := g.cycles[i]
		if c.at.After(to) {
			break
		}
		last = &g.cycles[i]
		if !c.at.Before(from) {
			in = append(in, c)
		}
	}
	return in, last
}
