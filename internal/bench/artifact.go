package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"nbtrie/internal/workload"
)

// Benchmark artifacts: the machine-readable output of cmd/benchtrie's
// -json mode. One artifact per figure, written as BENCH_<figure>.json,
// captures everything a later session (or CI run) needs to compare
// against: the workload configuration, throughput per series per thread
// count, and a benchmem-style allocs/op profile of each implementation's
// three basic operations. Artifacts checked into the repository form the
// performance trajectory of the project; regenerate them with
//
//	go run ./cmd/benchtrie -json [-quick]

// ArtifactSchema identifies the JSON layout; bump it when a field
// changes meaning so downstream comparisons fail loudly.
const ArtifactSchema = "nbtrie-bench/v1"

// AllocsProfile is a benchmem-style allocs/op and B/op measurement of
// the three basic set operations, taken single-threaded and uncontended
// on a prefilled structure. Throughput tells you how fast an
// implementation is on this machine today; allocs/op and B/op tell you
// how it will behave under GC pressure anywhere. The byte fields are
// additive: artifacts written before them parse with zeros, and
// benchcheck gates B/op only when the baseline carries it.
type AllocsProfile struct {
	Contains float64 `json:"contains"`
	Insert   float64 `json:"insert"`
	Delete   float64 `json:"delete"`

	ContainsBytes float64 `json:"contains_bytes,omitempty"`
	InsertBytes   float64 `json:"insert_bytes,omitempty"`
	DeleteBytes   float64 `json:"delete_bytes,omitempty"`
}

// hasBytes reports whether the profile carries a B/op measurement.
func (p *AllocsProfile) hasBytes() bool {
	return p.ContainsBytes > 0 || p.InsertBytes > 0 || p.DeleteBytes > 0
}

// MeasureAllocs profiles allocs/op and B/op for a fresh, half-prefilled
// instance from factory. Every operation is measured on its successful
// path: Contains alternates a hit and a miss, Insert consumes a pool of
// absent in-range keys, and Delete removes what Insert just added.
func MeasureAllocs(factory func() Set, keyRange uint64) AllocsProfile {
	s := factory()
	Prefill(s, keyRange, 1)
	// A key that is present and a pool of keys that are absent; all
	// in-range, so width-bounded implementations take their real paths.
	hit := uint64(0)
	var absent []uint64
	for k := uint64(0); k < keyRange && len(absent) < 257; k++ {
		if s.Contains(k) {
			hit = k
		} else {
			absent = append(absent, k)
		}
	}
	if len(absent) < 2 {
		// Degenerate key range (the stationary half-full distribution
		// left nothing absent); report an empty profile rather than
		// measuring failed operations.
		return AllocsProfile{}
	}
	p := AllocsProfile{}
	miss := absent[0]
	p.Contains, p.ContainsBytes = perRun(200, func() {
		s.Contains(hit)
		s.Contains(miss)
	})
	p.Contains /= 2
	p.ContainsBytes /= 2
	// perRun invokes f runs+1 times (one warmup); advancing an index
	// each call keeps every insert/delete on its successful path.
	i := 0
	p.Insert, p.InsertBytes = perRun(len(absent)-1, func() {
		s.Insert(absent[i])
		i++
	})
	j := 0
	p.Delete, p.DeleteBytes = perRun(len(absent)-1, func() {
		s.Delete(absent[j])
		j++
	})
	return p
}

// perRun is testing.AllocsPerRun extended to bytes: it calls f once to
// warm up, then runs times, single-threaded, and returns the
// allocations per run — truncated to an integer exactly as AllocsPerRun
// does, so allocs/op stays comparable with older artifacts — and the
// bytes allocated per run, rounded to the byte.
func perRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < runs; r++ {
		f()
	}
	runtime.ReadMemStats(&after)
	n := uint64(runs)
	return float64((after.Mallocs - before.Mallocs) / n),
		math.Round(float64(after.TotalAlloc-before.TotalAlloc) / float64(n))
}

// ArtifactConfig records the experiment parameters that produced an
// artifact, flattened to JSON-friendly fields.
type ArtifactConfig struct {
	Mix        workload.Mix `json:"mix"`
	KeyRange   uint64       `json:"key_range"`
	DurationMS float64      `json:"duration_ms"`
	WarmupMS   float64      `json:"warmup_ms"`
	Trials     int          `json:"trials"`
	SeqLen     uint64       `json:"seq_len"`
	Seed       uint64       `json:"seed"`
	Width      uint32       `json:"width"`

	// Server-benchmark extras (cmd/nbtriebench). Additive and omitted
	// when zero, so library artifacts are byte-identical to before and
	// old artifacts still parse: no schema bump needed.
	PipelineDepth int `json:"pipeline_depth,omitempty"`
	ValueSize     int `json:"value_size,omitempty"`
}

// ArtifactPoint is one (threads, throughput) measurement. The latency
// percentiles are additive (cmd/nbtriebench measures them client-side
// per pipelined batch, divided by the pipeline depth); they are omitted
// by producers that do not measure latency, and absent from artifacts
// written before they existed — consumers must treat zero as "not
// measured", which is also why benchcheck does not gate on them.
type ArtifactPoint struct {
	Threads         int     `json:"threads"`
	MeanOpsPerSec   float64 `json:"mean_ops_per_sec"`
	StddevOpsPerSec float64 `json:"stddev_ops_per_sec"`
	P50LatencyUS    float64 `json:"p50_latency_us,omitempty"`
	P99LatencyUS    float64 `json:"p99_latency_us,omitempty"`
	// ServerCmdCalls is the server-counted per-command call delta over
	// this point's measured trials (INFO Commandstats diffed around
	// them), keyed by lowercase command name. Additive: only server
	// artifacts from producers that snapshot Commandstats carry it, and
	// benchcheck does not gate on it.
	ServerCmdCalls map[string]int64 `json:"server_cmd_calls,omitempty"`
}

// ServerAllocsProfile pins the SERVER-side dispatch path (wire parse →
// command dispatch → reply encode), measured in-process by
// cmd/nbtriebench via internal/server's probe — the numbers the wire
// hides from a client-side profile. SetCodec excludes the engine's own
// store-path allocations (those are pinned by the library artifacts);
// the other ops run their full path, engine included, because it is
// allocation-free.
type ServerAllocsProfile struct {
	Get      float64 `json:"get"`
	Set      float64 `json:"set"` // full path, engine included
	SetCodec float64 `json:"set_codec"`
	Del      float64 `json:"del"`
	Exists   float64 `json:"exists"`
	MGet     float64 `json:"mget"`
}

// ArtifactSeries is one line of a figure: an implementation's sweep plus
// its allocation profile. ServerAllocsPerOp is additive (server
// artifacts only); benchcheck gates it only when the baseline has it.
type ArtifactSeries struct {
	Name string `json:"name"`
	// Fanout is the implementation's branching factor (omitted in
	// artifacts from before series carried it, and for callers that do
	// not set it). Informational: benchcheck matches series by Name.
	Fanout            int                  `json:"fanout,omitempty"`
	Points            []ArtifactPoint      `json:"points"`
	AllocsPerOp       *AllocsProfile       `json:"allocs_per_op,omitempty"`
	ServerAllocsPerOp *ServerAllocsProfile `json:"server_allocs_per_op,omitempty"`
}

// Machine records the shape of the host that produced an artifact —
// enough to judge whether two artifacts are comparable at all.
// Additive: library artifacts omit it (nil), old artifacts parse fine.
type Machine struct {
	NumCPU int    `json:"num_cpu"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
}

// HostMachine describes the current host.
func HostMachine() *Machine {
	return &Machine{NumCPU: runtime.NumCPU(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
}

// Artifact is the full BENCH_<figure>.json document.
type Artifact struct {
	Schema     string           `json:"schema"`
	Figure     string           `json:"figure"`
	Title      string           `json:"title"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Quick      bool             `json:"quick"`
	Machine    *Machine         `json:"machine,omitempty"`
	Config     ArtifactConfig   `json:"config"`
	Series     []ArtifactSeries `json:"series"`
}

// NewArtifact assembles an artifact from completed series.
func NewArtifact(figure, title string, cfg Config, width uint32, quick bool) Artifact {
	return Artifact{
		Schema:     ArtifactSchema,
		Figure:     figure,
		Title:      title,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
		Config: ArtifactConfig{
			Mix:        cfg.Mix,
			KeyRange:   cfg.KeyRange,
			DurationMS: float64(cfg.Duration.Microseconds()) / 1e3,
			WarmupMS:   float64(cfg.Warmup.Microseconds()) / 1e3,
			Trials:     cfg.Trials,
			SeqLen:     cfg.SeqLen,
			Seed:       cfg.Seed,
			Width:      width,
		},
	}
}

// AddSeries appends one implementation's results to the artifact.
func (a *Artifact) AddSeries(s Series, allocs *AllocsProfile) {
	as := ArtifactSeries{Name: s.Name, Fanout: s.Fanout, AllocsPerOp: allocs}
	for _, p := range s.Points {
		as.Points = append(as.Points, ArtifactPoint{
			Threads:         p.Threads,
			MeanOpsPerSec:   p.Summary.Mean,
			StddevOpsPerSec: p.Summary.Stddev,
			P50LatencyUS:    p.P50LatencyUS,
			P99LatencyUS:    p.P99LatencyUS,
			ServerCmdCalls:  p.ServerCmdCalls,
		})
	}
	a.Series = append(a.Series, as)
}

// ArtifactFilename returns the canonical file name for a figure's
// artifact, BENCH_<figure>.json.
func ArtifactFilename(figure string) string {
	return fmt.Sprintf("BENCH_%s.json", figure)
}

// WriteArtifact writes the artifact to dir under its canonical name and
// returns the full path.
func WriteArtifact(dir string, a Artifact) (string, error) {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	path := filepath.Join(dir, ArtifactFilename(a.Figure))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
