package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"nbtrie/internal/bench"
)

func writeArtifact(t *testing.T, dir, fig string, mean float64, insertAllocs float64) string {
	t.Helper()
	a := bench.Artifact{Schema: bench.ArtifactSchema, Figure: fig}
	a.Series = []bench.ArtifactSeries{{
		Name:        "PAT",
		Points:      []bench.ArtifactPoint{{Threads: 1, MeanOpsPerSec: mean}},
		AllocsPerOp: &bench.AllocsProfile{Insert: insertAllocs},
	}}
	path, err := bench.WriteArtifact(dir, a)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCleanGate(t *testing.T) {
	base := writeArtifact(t, t.TempDir(), "9b", 1000, 8)
	cand := writeArtifact(t, t.TempDir(), "9b", 950, 8)
	var out, errb bytes.Buffer
	if code := run([]string{base, cand}, &out, &errb); code != 0 {
		t.Fatalf("clean gate exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Errorf("expected ok summary, got %q", out.String())
	}
}

func TestRunThroughputRegressionFails(t *testing.T) {
	base := writeArtifact(t, t.TempDir(), "9b", 1000, 8)
	cand := writeArtifact(t, t.TempDir(), "9b", 100, 8)
	var out, errb bytes.Buffer
	if code := run([]string{"-max-drop", "25", base, cand}, &out, &errb); code != 1 {
		t.Fatalf("90%% drop exited %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "ops/sec") {
		t.Errorf("expected a throughput FAIL line, got %q", errb.String())
	}
	// The same drop passes under a generous enough tolerance.
	if code := run([]string{"-max-drop", "95", base, cand}, &out, &errb); code != 0 {
		t.Fatalf("drop within tolerance exited %d, want 0", code)
	}
}

func TestRunAllocRegressionFails(t *testing.T) {
	base := writeArtifact(t, t.TempDir(), "9b", 1000, 8)
	cand := writeArtifact(t, t.TempDir(), "9b", 1000, 9)
	var out, errb bytes.Buffer
	if code := run([]string{base, cand}, &out, &errb); code != 1 {
		t.Fatalf("allocs/op rise exited %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "allocs/op") {
		t.Errorf("expected an allocs/op FAIL line, got %q", errb.String())
	}
}

func TestRunBytesRegressionFails(t *testing.T) {
	write := func(dir string, insertBytes float64) string {
		a := bench.Artifact{Schema: bench.ArtifactSchema, Figure: "9b"}
		a.Series = []bench.ArtifactSeries{{
			Name:        "PAT",
			Points:      []bench.ArtifactPoint{{Threads: 1, MeanOpsPerSec: 1000}},
			AllocsPerOp: &bench.AllocsProfile{Insert: 5, InsertBytes: insertBytes},
		}}
		path, err := bench.WriteArtifact(dir, a)
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write(t.TempDir(), 504)
	var out, errb bytes.Buffer
	// Same allocation count, a fatter object: only B/op sees it.
	if code := run([]string{base, write(t.TempDir(), 640)}, &out, &errb); code != 1 {
		t.Fatalf("B/op rise exited %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "B/op") {
		t.Errorf("expected a B/op FAIL line, got %q", errb.String())
	}
	errb.Reset()
	if code := run([]string{base, write(t.TempDir(), 280)}, &out, &errb); code != 0 {
		t.Fatalf("B/op drop exited %d, want 0: %s", code, errb.String())
	}
}

func TestRunUsageAndIOErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no args exited %d, want 2", code)
	}
	if code := run([]string{"one.json"}, &out, &errb); code != 2 {
		t.Errorf("one arg exited %d, want 2", code)
	}
	good := writeArtifact(t, t.TempDir(), "9b", 1000, 8)
	if code := run([]string{good, filepath.Join(t.TempDir(), "missing.json")}, &out, &errb); code != 2 {
		t.Errorf("missing candidate exited %d, want 2", code)
	}
	// Mismatched figures are misuse, not a regression.
	other := writeArtifact(t, t.TempDir(), "9a", 1000, 8)
	if code := run([]string{good, other}, &out, &errb); code != 2 {
		t.Errorf("figure mismatch exited %d, want 2", code)
	}
}
