package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

func mkSeries(name string, means map[int]float64, allocs *AllocsProfile) ArtifactSeries {
	s := ArtifactSeries{Name: name, AllocsPerOp: allocs}
	// Deterministic point order, ascending threads.
	for _, th := range []int{1, 2, 4, 8} {
		if m, ok := means[th]; ok {
			s.Points = append(s.Points, ArtifactPoint{Threads: th, MeanOpsPerSec: m})
		}
	}
	return s
}

func mkArtifact(fig string, series ...ArtifactSeries) Artifact {
	return Artifact{Schema: ArtifactSchema, Figure: fig, Series: series}
}

func TestCompareArtifactsPasses(t *testing.T) {
	base := mkArtifact("9b",
		mkSeries("PAT", map[int]float64{1: 1000, 2: 2000, 4: 4000}, &AllocsProfile{Insert: 8, Delete: 2}),
	)
	// Candidate: small drop within tolerance at 1 thread, improvement at
	// 2, no point at 4 (quick sweep), equal allocs — all fine. Extra
	// series pass freely.
	cand := mkArtifact("9b",
		mkSeries("PAT", map[int]float64{1: 900, 2: 2600}, &AllocsProfile{Insert: 8, Delete: 2}),
		mkSeries("PAT-S", map[int]float64{1: 1500}, &AllocsProfile{Insert: 8}),
	)
	regs, err := CompareArtifacts(base, cand, CompareOptions{MaxDrop: 0.25, AllocSlack: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("expected clean gate, got %v", regs)
	}
}

func TestCompareArtifactsThroughputRegression(t *testing.T) {
	base := mkArtifact("9b", mkSeries("PAT", map[int]float64{1: 1000, 2: 2000}, nil))
	cand := mkArtifact("9b", mkSeries("PAT", map[int]float64{1: 1000, 2: 1400}, nil))
	regs, err := CompareArtifacts(base, cand, CompareOptions{MaxDrop: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Series != "PAT" || !strings.Contains(regs[0].Metric, "2 threads") {
		t.Fatalf("want one 2-thread throughput regression, got %v", regs)
	}
	// Exactly at the tolerance boundary: 25% drop with MaxDrop 0.25 passes.
	cand2 := mkArtifact("9b", mkSeries("PAT", map[int]float64{1: 750, 2: 1500}, nil))
	regs, err = CompareArtifacts(base, cand2, CompareOptions{MaxDrop: 0.25})
	if err != nil || len(regs) != 0 {
		t.Fatalf("boundary drop must pass, got %v, %v", regs, err)
	}
}

func TestCompareArtifactsAllocRegression(t *testing.T) {
	base := mkArtifact("9a", mkSeries("PAT", map[int]float64{1: 1000},
		&AllocsProfile{Contains: 0, Insert: 8, Delete: 2}))
	cand := mkArtifact("9a", mkSeries("PAT", map[int]float64{1: 5000},
		&AllocsProfile{Contains: 1, Insert: 8, Delete: 2}))
	regs, err := CompareArtifacts(base, cand, CompareOptions{MaxDrop: 0.25, AllocSlack: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !strings.Contains(regs[0].Metric, "contains") {
		t.Fatalf("want one contains-allocs regression, got %v", regs)
	}
	// A candidate that silently drops its alloc profile fails too.
	cand.Series[0].AllocsPerOp = nil
	regs, err = CompareArtifacts(base, cand, CompareOptions{MaxDrop: 0.25, AllocSlack: 0.25})
	if err != nil || len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("missing profile must regress, got %v, %v", regs, err)
	}
	// Lower allocs pass (the pin is one-sided).
	cand.Series[0].AllocsPerOp = &AllocsProfile{Contains: 0, Insert: 4, Delete: 1}
	regs, _ = CompareArtifacts(base, cand, CompareOptions{MaxDrop: 0.25, AllocSlack: 0.25})
	if len(regs) != 0 {
		t.Fatalf("improved allocs must pass, got %v", regs)
	}
}

func TestCompareArtifactsBytesRegression(t *testing.T) {
	prof := func(insertBytes float64) *AllocsProfile {
		return &AllocsProfile{Insert: 5, Delete: 2, InsertBytes: insertBytes, DeleteBytes: 168}
	}
	opt := CompareOptions{MaxDrop: 0.25, AllocSlack: 0.25}
	base := mkArtifact("9a", mkSeries("PAT", map[int]float64{1: 1000}, prof(504)))

	// A fatter object at the same allocation count: the allocs/op pin
	// cannot see it, the B/op pin must.
	cand := mkArtifact("9a", mkSeries("PAT", map[int]float64{1: 1000}, prof(536)))
	regs, err := CompareArtifacts(base, cand, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "B/op (insert)" {
		t.Fatalf("want one insert B/op regression, got %v", regs)
	}
	// Within the slack, and lower, both pass.
	for _, b := range []float64{520, 280} {
		cand.Series[0].AllocsPerOp = prof(b)
		if regs, _ := CompareArtifacts(base, cand, opt); len(regs) != 0 {
			t.Fatalf("insert %v B/op against 504 must pass, got %v", b, regs)
		}
	}
	// A candidate that stops measuring bytes while still allocating fails.
	cand.Series[0].AllocsPerOp = &AllocsProfile{Insert: 5, Delete: 2}
	regs, _ = CompareArtifacts(base, cand, opt)
	if len(regs) != 1 || regs[0].Metric != "B/op" {
		t.Fatalf("dropped B/op must regress, got %v", regs)
	}
	// A baseline without B/op (written before it existed) gates nothing.
	old := mkArtifact("9a", mkSeries("PAT", map[int]float64{1: 1000}, &AllocsProfile{Insert: 8, Delete: 2}))
	cand.Series[0].AllocsPerOp = prof(9999)
	if regs, _ := CompareArtifacts(old, cand, opt); len(regs) != 0 {
		t.Fatalf("baseline without B/op must not gate bytes, got %v", regs)
	}
}

func TestCompareArtifactsMissingSeries(t *testing.T) {
	base := mkArtifact("9b",
		mkSeries("PAT", map[int]float64{1: 1000}, nil),
		mkSeries("BST", map[int]float64{1: 800}, nil))
	cand := mkArtifact("9b", mkSeries("PAT", map[int]float64{1: 1000}, nil))
	regs, err := CompareArtifacts(base, cand, CompareOptions{MaxDrop: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Series != "BST" || regs[0].Metric != "series" {
		t.Fatalf("want one missing-series regression, got %v", regs)
	}
}

func TestCompareArtifactsMisuse(t *testing.T) {
	a := mkArtifact("9a")
	b := mkArtifact("9b")
	if _, err := CompareArtifacts(a, b, CompareOptions{MaxDrop: 0.25}); err == nil {
		t.Error("figure mismatch must error")
	}
	if _, err := CompareArtifacts(a, a, CompareOptions{MaxDrop: 1.5}); err == nil {
		t.Error("MaxDrop >= 1 must error")
	}
	if _, err := CompareArtifacts(a, a, CompareOptions{MaxDrop: -0.1}); err == nil {
		t.Error("negative MaxDrop must error")
	}
}

func TestReadArtifactRoundTripAndSchemaGate(t *testing.T) {
	dir := t.TempDir()
	a := mkArtifact("9b", mkSeries("PAT", map[int]float64{1: 1000}, &AllocsProfile{Insert: 8}))
	path, err := WriteArtifact(dir, a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Figure != "9b" || len(got.Series) != 1 || got.Series[0].Points[0].MeanOpsPerSec != 1000 {
		t.Fatalf("round trip lost data: %+v", got)
	}

	// Wrong schema fails loudly.
	bad := a
	bad.Schema = "nbtrie-bench/v0"
	bad.Figure = "bad"
	if _, err := WriteArtifact(dir, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArtifact(filepath.Join(dir, ArtifactFilename("bad"))); err == nil {
		t.Error("schema mismatch must error")
	}
	// Missing and malformed files error too.
	if _, err := ReadArtifact(filepath.Join(dir, "nope.json")); err == nil {
		t.Error("missing file must error")
	}
}

// TestCompareArtifactsServerAllocs: the server-path pins gate like the
// client codec's, but only when the baseline carries them — an old
// baseline without the field never fails a candidate that has it.
func TestCompareArtifactsServerAllocs(t *testing.T) {
	withSrv := func(name string, srv *ServerAllocsProfile) ArtifactSeries {
		s := mkSeries(name, map[int]float64{1: 1000}, nil)
		s.ServerAllocsPerOp = srv
		return s
	}
	opt := CompareOptions{MaxDrop: 0.25, AllocSlack: 0.25}

	// Old baseline (no server pins) vs new candidate (with pins and
	// latency fields): additive fields must pass untouched.
	base := mkArtifact("server", mkSeries("get90-set10", map[int]float64{1: 1000}, nil))
	cand := mkArtifact("server", withSrv("get90-set10", &ServerAllocsProfile{Set: 5, SetCodec: 1}))
	cand.Series[0].Points[0].P50LatencyUS = 80
	cand.Series[0].Points[0].P99LatencyUS = 400
	if regs, err := CompareArtifacts(base, cand, opt); err != nil || len(regs) != 0 {
		t.Fatalf("old baseline vs pinned candidate: regs=%v err=%v", regs, err)
	}

	// Pinned baseline vs rising candidate: each risen op is a regression.
	base = mkArtifact("server", withSrv("get90-set10", &ServerAllocsProfile{Get: 0, Set: 5, SetCodec: 1}))
	cand = mkArtifact("server", withSrv("get90-set10", &ServerAllocsProfile{Get: 2, Set: 5, SetCodec: 3}))
	regs, err := CompareArtifacts(base, cand, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 2 {
		t.Fatalf("want 2 server-alloc regressions, got %v", regs)
	}
	for _, r := range regs {
		if !strings.Contains(r.Metric, "server allocs/op") {
			t.Errorf("unexpected metric %q", r.Metric)
		}
	}

	// Pinned baseline vs candidate that dropped the profile entirely.
	cand = mkArtifact("server", withSrv("get90-set10", nil))
	if regs, _ := CompareArtifacts(base, cand, opt); len(regs) != 1 || !strings.Contains(regs[0].Message, "missing") {
		t.Fatalf("dropped profile must regress, got %v", regs)
	}

	// Latency-only change never regresses (not gated).
	base = mkArtifact("server", mkSeries("get90-set10", map[int]float64{1: 1000}, nil))
	base.Series[0].Points[0].P99LatencyUS = 100
	cand = mkArtifact("server", mkSeries("get90-set10", map[int]float64{1: 1000}, nil))
	cand.Series[0].Points[0].P99LatencyUS = 9999
	if regs, _ := CompareArtifacts(base, cand, opt); len(regs) != 0 {
		t.Fatalf("latency must not gate, got %v", regs)
	}
}
