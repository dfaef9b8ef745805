package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nbtrie"
)

// daemonBin is nbtried built once for the whole test binary.
var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	daemonBin = filepath.Join(dir, "nbtried")
	build := exec.Command("go", "build", "-o", daemonBin, "nbtrie/cmd/nbtried")
	build.Stderr = os.Stderr
	code := 1
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building nbtried:", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// contract is BENCHMARK.json's metric lists.
type contract struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func shortRun(t *testing.T, name string, trace bool, plant *faults) *report {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run(options{workload: w, seed: 7, seconds: 1, trace: trace,
		root: t.TempDir(), daemonBin: daemonBin, plant: plant, instances: 1})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

// checkMetrics asserts the run printed exactly the contract's metrics,
// each with its declared unit and a finite value.
func checkMetrics(t *testing.T, rep *report, want []struct{ Name, Unit string }) {
	t.Helper()
	for _, m := range want {
		got, ok := rep.Result.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", rep.Workload, m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("%s: metric %s unit %q, want %q", rep.Workload, m.Name, got.Unit, m.Unit)
		}
		if got.Value != got.Value || got.Value > 1e300 || got.Value < -1e300 {
			t.Errorf("%s: metric %s = %v", rep.Workload, m.Name, got.Value)
		}
	}
	if len(rep.Result.Metrics) != len(want) {
		var names []string
		for n := range rep.Result.Metrics {
			names = append(names, n)
		}
		slices.Sort(names)
		t.Errorf("%s: %d metrics, contract has %d: %v", rep.Workload, len(rep.Result.Metrics), len(want), names)
	}
}

// TestSmoke runs each workload briefly: every reply must check and
// every end-to-end metric must be printed, nonzero.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	for _, w := range c.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			rep := shortRun(t, w.Name, false, nil)
			if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d failures=%v",
					rep.Result.Correct, rep.Result.Attempted, rep.Result.Failed, rep.Failures)
			}
			checkMetrics(t, rep, c.EndToEnd)
			for n, m := range rep.Result.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
				}
			}
		})
	}
}

// TestTracedSmoke runs each workload traced: every per-layer metric is
// printed, and the numbers back each workload's stated reason.
func TestTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs take about a minute")
	}
	c := readContract(t)
	got := map[string]*report{}
	for _, w := range c.Workloads {
		rep := shortRun(t, w.Name, true, nil)
		if !rep.Result.Correct {
			t.Fatalf("%s: failures %v", w.Name, rep.Failures)
		}
		checkMetrics(t, rep, c.PerLayer)
		got[w.Name] = rep
	}
	v := func(w, m string) float64 { return got[w].Result.Metrics[m].Value }
	if v("read-1m", "engine.load_ns_p50") <= v("write-aof", "engine.load_ns_p50") {
		t.Errorf("engine.load_ns_p50: read-1m %v, write-aof %v; the 1M-key descent should cost more",
			v("read-1m", "engine.load_ns_p50"), v("write-aof", "engine.load_ns_p50"))
	}
	if r := v("read-1m", "expiry.armed_read_ratio"); r != 0 {
		t.Errorf("read-1m armed_read_ratio %v, want 0", r)
	}
	if r := v("ttl-churn", "expiry.armed_read_ratio"); r < 0.5 {
		t.Errorf("ttl-churn armed_read_ratio %v, want most GETs", r)
	}
	for _, w := range c.Workloads {
		if s := v(w.Name, "sharded.max_shard_share"); s != 1 {
			t.Errorf("%s: max_shard_share %v; BytesKeyer puts every decimal key in one shard", w.Name, s)
		}
	}
}

// The planted failures must each fail the run.

func TestPlantedStaleGet(t *testing.T) {
	rep := shortRun(t, "ttl-churn", false, &faults{staleGetAtBatch: 3})
	wantFailure(t, rep, "GET")
}

func TestPlantedErrorReply(t *testing.T) {
	rep := shortRun(t, "write-aof", false, &faults{errorAtBatch: 3})
	wantFailure(t, rep, "error reply")
}

func TestPlantedLostWrite(t *testing.T) {
	rep := shortRun(t, "write-aof", false, &faults{loseWrite: true})
	wantFailure(t, rep, "after restart")
}

func wantFailure(t *testing.T, rep *report, substr string) {
	t.Helper()
	if rep.Result.Correct || rep.Result.Failed == 0 {
		t.Fatalf("planted failure not caught: correct=%v failed=%d", rep.Result.Correct, rep.Result.Failed)
	}
	if !slices.ContainsFunc(rep.Failures, func(f string) bool { return strings.Contains(f, substr) }) {
		t.Fatalf("failures %q mention no %q", rep.Failures, substr)
	}
}

// TestStreamDeterministic checks that the op stream and its expected
// replies are a pure function of the seed.
func TestStreamDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := newModel(w, 3, 1), newModel(w, 3, 1)
		if !slices.Equal(a.prefill(), b.prefill()) {
			t.Fatalf("%s: prefill differs", w.name)
		}
		for i := 0; i < 10_000; i++ {
			if x, y := a.next(), b.next(); x != y {
				t.Fatalf("%s: op %d differs: %+v vs %+v", w.name, i, x, y)
			}
		}
		c := newModel(w, 4, 1)
		c.prefill()
		same := 0
		for i := 0; i < 1000; i++ {
			if a.next() == c.next() {
				same++
			}
		}
		if same > 500 {
			t.Errorf("%s: seeds 3 and 4 agree on %d of 1000 ops", w.name, same)
		}
	}
}

// TestRenameStaysInShard checks the write-aof premise that every RENAME
// is the engine's same-shard atomic replace.
func TestRenameStaysInShard(t *testing.T) {
	w, _ := workloadByName("write-aof")
	sm, err := nbtrie.NewShardedMap[struct{}](keyerWidth, 8)
	if err != nil {
		t.Fatal(err)
	}
	m := newModel(w, 5, 0)
	m.prefill()
	for i := 0; i < 10_000; i++ {
		o := m.next()
		if o.kind == opRename && !sm.SameShard(trieKey(o.key), trieKey(o.dst)) {
			t.Fatalf("RENAME %07d → %07d crosses shards", o.key, o.dst)
		}
	}
}
