package bench

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"nbtrie/internal/stats"
	"nbtrie/internal/workload"
)

func TestMeasureAllocsOnMapSet(t *testing.T) {
	p := MeasureAllocs(newLockedSet, 1000)
	// A mutex-guarded map set: Contains must not allocate, Insert may
	// (map growth); the point here is that the probe finds real hit/miss
	// keys and the numbers are non-negative and finite.
	if p.Contains != 0 {
		t.Errorf("map set Contains allocs = %v, want 0", p.Contains)
	}
	if p.Insert < 0 || p.Delete < 0 {
		t.Errorf("negative alloc profile: %+v", p)
	}
}

// slotSet is a set whose Insert allocates exactly one 64 B object and
// whose other operations allocate nothing: a known answer for the B/op
// side of MeasureAllocs.
type slotSet struct{ slots [1024]*[8]uint64 }

func (s *slotSet) Insert(k uint64) bool {
	if s.slots[k] != nil {
		return false
	}
	s.slots[k] = new([8]uint64)
	return true
}

func (s *slotSet) Delete(k uint64) bool {
	if s.slots[k] == nil {
		return false
	}
	s.slots[k] = nil
	return true
}

func (s *slotSet) Contains(k uint64) bool { return s.slots[k] != nil }

// TestMeasureAllocsReportsBytes checks the B/op plumbing against
// slotSet's known answer. TotalAlloc is process-wide, so a stray runtime
// allocation can add a few bytes per op to a measurement (never remove
// any); the byte checks allow for that and nothing more.
func TestMeasureAllocsReportsBytes(t *testing.T) {
	p := MeasureAllocs(func() Set { return &slotSet{} }, 1000)
	if p.Contains != 0 || p.Insert != 1 || p.Delete != 0 {
		t.Errorf("slotSet allocs/op = %v/%v/%v, want 0/1/0", p.Contains, p.Insert, p.Delete)
	}
	if p.InsertBytes < 64 || p.InsertBytes >= 80 || p.ContainsBytes >= 8 || p.DeleteBytes >= 8 {
		t.Errorf("slotSet B/op = %v/%v/%v, want about 0/64/0", p.ContainsBytes, p.InsertBytes, p.DeleteBytes)
	}
	if !p.hasBytes() {
		t.Error("a profile with insert B/op must report hasBytes")
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	cfg := Config{
		Mix:      workload.MixI5D5F90,
		KeyRange: 1000,
		Threads:  1,
		Duration: 5 * time.Millisecond,
		Trials:   1,
		Seed:     7,
	}
	a := NewArtifact("9b", "test figure", cfg, 10, true)
	a.AddSeries(Series{
		Name: "PAT",
		Points: []Point{
			{Threads: 1, Summary: stats.Summary{N: 1, Mean: 123456, Stddev: 42}},
			{Threads: 2, Summary: stats.Summary{N: 1, Mean: 234567, Stddev: 17}},
		},
	}, &AllocsProfile{Contains: 0, Insert: 5, Delete: 2, InsertBytes: 504})

	dir := t.TempDir()
	path, err := WriteArtifact(dir, a)
	if err != nil {
		t.Fatal(err)
	}
	if want := dir + "/" + ArtifactFilename("9b"); path != want {
		t.Errorf("artifact path %q, want %q", path, want)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Artifact
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if back.Schema != ArtifactSchema {
		t.Errorf("schema %q, want %q", back.Schema, ArtifactSchema)
	}
	if back.Figure != "9b" || !back.Quick {
		t.Errorf("figure/quick lost: %+v", back)
	}
	if len(back.Series) != 1 || back.Series[0].Name != "PAT" {
		t.Fatalf("series lost: %+v", back.Series)
	}
	if got := back.Series[0].Points[1].MeanOpsPerSec; got != 234567 {
		t.Errorf("point mean = %v, want 234567", got)
	}
	if p := back.Series[0].AllocsPerOp; p == nil || p.Insert != 5 || p.InsertBytes != 504 {
		t.Errorf("allocs profile lost: %+v", back.Series[0].AllocsPerOp)
	}
	if back.Config.KeyRange != 1000 || back.Config.Width != 10 || back.Config.Seed != 7 {
		t.Errorf("config lost: %+v", back.Config)
	}
}
