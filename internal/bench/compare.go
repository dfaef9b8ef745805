package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// Artifact comparison: the regression gate behind cmd/benchcheck. Two
// nbtrie-bench/v1 artifacts of the same figure are compared point by
// point; a drop in throughput beyond the configured tolerance on any
// shared (series, threads) point, any rise in an allocs/op or B/op pin,
// or a series that vanished entirely is a Regression. Throughput is
// noisy — CI machines doubly so — hence the generous, configurable drop
// tolerance; allocs/op and B/op are deterministic, so any rise at all
// (beyond a tiny quantization slack) fails.

// CompareOptions tunes the regression gate.
type CompareOptions struct {
	// MaxDrop is the tolerated relative throughput drop on a shared
	// point, as a fraction: 0.25 fails a point whose candidate mean falls
	// below 75% of the baseline mean. Zero means "any drop fails" —
	// usually not what a noisy environment wants.
	MaxDrop float64
	// AllocSlack is the tolerated absolute rise in an allocs/op pin.
	// AllocsPerRun measurements are near-deterministic; the default gate
	// passes a small fraction (e.g. 0.25) to absorb sampling jitter while
	// still failing any genuine extra allocation per op.
	AllocSlack float64
}

// BytesSlack is the tolerated relative rise in a B/op pin, as a fraction
// of the baseline: a pin that grows by more than 5% fails, the same
// strictness as the default quarter-allocation AllocSlack on an update
// of about five allocations. B/op is gated only when the baseline
// profile carries it.
const BytesSlack = 0.05

// Regression is one detected failure of the gate.
type Regression struct {
	Series  string  // legend name, e.g. "PAT-S"
	Metric  string  // "ops/sec @ N threads", "allocs/op (insert)", "B/op (insert)", "series"
	Old     float64 // baseline value (0 for structural regressions)
	New     float64 // candidate value
	Message string  // human-readable one-liner
}

func (r Regression) String() string { return r.Message }

// ReadArtifact loads and schema-checks one artifact file.
func ReadArtifact(path string) (Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Artifact{}, err
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return Artifact{}, fmt.Errorf("%s: not a benchmark artifact: %w", path, err)
	}
	if a.Schema != ArtifactSchema {
		return Artifact{}, fmt.Errorf("%s: schema %q, want %q (regenerate with cmd/benchtrie)", path, a.Schema, ArtifactSchema)
	}
	return a, nil
}

// CompareArtifacts gates candidate against baseline and returns every
// regression found (empty means the gate passes). The artifacts must
// describe the same figure; an error reports misuse of the tool, not a
// regression. Points are matched by thread count and series by name, so
// a quick candidate sweep (threads 1,2) gates correctly against a full
// baseline sweep — only shared points are compared. A series present in
// the baseline but missing from the candidate is a regression (an
// implementation fell out of the registry); extra candidate series are
// new work and pass freely.
func CompareArtifacts(baseline, candidate Artifact, opt CompareOptions) ([]Regression, error) {
	if baseline.Figure != candidate.Figure {
		return nil, fmt.Errorf("figure mismatch: baseline %q vs candidate %q", baseline.Figure, candidate.Figure)
	}
	if opt.MaxDrop < 0 || opt.MaxDrop >= 1 {
		return nil, fmt.Errorf("MaxDrop %v out of range [0, 1)", opt.MaxDrop)
	}
	candSeries := make(map[string]ArtifactSeries, len(candidate.Series))
	for _, s := range candidate.Series {
		candSeries[s.Name] = s
	}
	var regs []Regression
	for _, base := range baseline.Series {
		cand, ok := candSeries[base.Name]
		if !ok {
			regs = append(regs, Regression{
				Series: base.Name, Metric: "series",
				Message: fmt.Sprintf("%s: series missing from candidate artifact", base.Name),
			})
			continue
		}
		regs = append(regs, compareThroughput(base, cand, opt.MaxDrop)...)
		regs = append(regs, compareAllocs(base, cand, opt.AllocSlack)...)
		regs = append(regs, compareBytes(base, cand)...)
		regs = append(regs, compareServerAllocs(base, cand, opt.AllocSlack)...)
	}
	return regs, nil
}

func compareThroughput(base, cand ArtifactSeries, maxDrop float64) []Regression {
	candPoints := make(map[int]ArtifactPoint, len(cand.Points))
	for _, p := range cand.Points {
		candPoints[p.Threads] = p
	}
	var regs []Regression
	for _, bp := range base.Points {
		cp, ok := candPoints[bp.Threads]
		if !ok || bp.MeanOpsPerSec <= 0 {
			continue // unshared point or degenerate baseline: nothing to gate
		}
		floor := bp.MeanOpsPerSec * (1 - maxDrop)
		if cp.MeanOpsPerSec < floor {
			regs = append(regs, Regression{
				Series: base.Name,
				Metric: fmt.Sprintf("ops/sec @ %d threads", bp.Threads),
				Old:    bp.MeanOpsPerSec, New: cp.MeanOpsPerSec,
				Message: fmt.Sprintf("%s @ %d threads: %.0f -> %.0f ops/sec (-%.0f%%, tolerance %.0f%%)",
					base.Name, bp.Threads, bp.MeanOpsPerSec, cp.MeanOpsPerSec,
					100*(1-cp.MeanOpsPerSec/bp.MeanOpsPerSec), 100*maxDrop),
			})
		}
	}
	return regs
}

func compareAllocs(base, cand ArtifactSeries, slack float64) []Regression {
	if base.AllocsPerOp == nil {
		return nil // baseline never pinned allocations for this series
	}
	if cand.AllocsPerOp == nil {
		return []Regression{{
			Series: base.Name, Metric: "allocs/op",
			Message: fmt.Sprintf("%s: allocs/op profile missing from candidate (baseline pins one)", base.Name),
		}}
	}
	ops := []struct {
		name     string
		old, new float64
	}{
		{"contains", base.AllocsPerOp.Contains, cand.AllocsPerOp.Contains},
		{"insert", base.AllocsPerOp.Insert, cand.AllocsPerOp.Insert},
		{"delete", base.AllocsPerOp.Delete, cand.AllocsPerOp.Delete},
	}
	var regs []Regression
	for _, op := range ops {
		if op.new > op.old+slack {
			regs = append(regs, Regression{
				Series: base.Name,
				Metric: fmt.Sprintf("allocs/op (%s)", op.name),
				Old:    op.old, New: op.new,
				Message: fmt.Sprintf("%s: %s allocs/op rose %.2f -> %.2f (slack %.2f)",
					base.Name, op.name, op.old, op.new, slack),
			})
		}
	}
	return regs
}

// compareBytes gates the B/op side of the allocation profile. Baselines
// written before B/op was measured carry none and are not gated. A
// candidate that allocates but reports no bytes has lost its B/op
// measurement, which fails like a missing allocs/op profile. A missing
// candidate profile is reported once, by compareAllocs.
func compareBytes(base, cand ArtifactSeries) []Regression {
	if base.AllocsPerOp == nil || !base.AllocsPerOp.hasBytes() || cand.AllocsPerOp == nil {
		return nil
	}
	b, c := base.AllocsPerOp, cand.AllocsPerOp
	if !c.hasBytes() && c.Contains+c.Insert+c.Delete > 0 {
		return []Regression{{
			Series: base.Name, Metric: "B/op",
			Message: fmt.Sprintf("%s: B/op missing from candidate profile (baseline pins it)", base.Name),
		}}
	}
	ops := []struct {
		name     string
		old, new float64
	}{
		{"contains", b.ContainsBytes, c.ContainsBytes},
		{"insert", b.InsertBytes, c.InsertBytes},
		{"delete", b.DeleteBytes, c.DeleteBytes},
	}
	var regs []Regression
	for _, op := range ops {
		if op.new > op.old*(1+BytesSlack) {
			regs = append(regs, Regression{
				Series: base.Name,
				Metric: fmt.Sprintf("B/op (%s)", op.name),
				Old:    op.old, New: op.new,
				Message: fmt.Sprintf("%s: %s B/op rose %.0f -> %.0f (slack %.0f%%)",
					base.Name, op.name, op.old, op.new, 100*BytesSlack),
			})
		}
	}
	return regs
}

// compareServerAllocs gates the server-side dispatch pins the same way
// compareAllocs gates the client codec — but only when the baseline has
// them, so pre-existing artifacts (and library figures, which never
// measure the server path) pass untouched. Latency percentiles are
// deliberately NOT gated: they are throughput's noisy cousin, recorded
// for inspection, not regression-tested.
func compareServerAllocs(base, cand ArtifactSeries, slack float64) []Regression {
	if base.ServerAllocsPerOp == nil {
		return nil
	}
	if cand.ServerAllocsPerOp == nil {
		return []Regression{{
			Series: base.Name, Metric: "server allocs/op",
			Message: fmt.Sprintf("%s: server_allocs_per_op missing from candidate (baseline pins it)", base.Name),
		}}
	}
	b, c := base.ServerAllocsPerOp, cand.ServerAllocsPerOp
	ops := []struct {
		name     string
		old, new float64
	}{
		{"get", b.Get, c.Get},
		{"set", b.Set, c.Set},
		{"set_codec", b.SetCodec, c.SetCodec},
		{"del", b.Del, c.Del},
		{"exists", b.Exists, c.Exists},
		{"mget", b.MGet, c.MGet},
	}
	var regs []Regression
	for _, op := range ops {
		if op.new > op.old+slack {
			regs = append(regs, Regression{
				Series: base.Name,
				Metric: fmt.Sprintf("server allocs/op (%s)", op.name),
				Old:    op.old, New: op.new,
				Message: fmt.Sprintf("%s: server %s allocs/op rose %.2f -> %.2f (slack %.2f)",
					base.Name, op.name, op.old, op.new, slack),
			})
		}
	}
	return regs
}
