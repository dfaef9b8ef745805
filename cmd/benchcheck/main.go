// Command benchcheck is the benchmark-regression gate: it compares a
// candidate nbtrie-bench/v1 artifact (a fresh cmd/benchtrie -json run)
// against a checked-in baseline of the same figure and exits non-zero if
// anything regressed. CI runs it in the bench-smoke job so a throughput
// collapse or a new allocation on a pinned path fails the PR instead of
// landing silently.
//
// Usage:
//
//	benchcheck [-max-drop 25] [-alloc-slack 0.25] baseline.json candidate.json
//
// What fails the gate:
//   - a shared (series, thread-count) point whose candidate mean ops/sec
//     drops more than -max-drop percent below the baseline;
//   - any allocs/op pin (contains/insert/delete) rising by more than
//     -alloc-slack (absolute) — allocation counts are deterministic, so
//     the slack only absorbs AllocsPerRun quantization;
//   - any B/op pin rising by more than 5% of the baseline, when the
//     baseline carries B/op — as deterministic as allocs/op, so the same
//     strictness: 5% is a quarter allocation on a five-allocation update;
//   - a series present in the baseline but missing from the candidate.
//
// Points are matched by thread count, so a -quick candidate sweep
// (threads 1,2) gates correctly against a full checked-in baseline:
// unshared points are ignored. Extra candidate series (new
// implementations) pass freely — check in a regenerated baseline to
// start gating them.
//
// Exit status: 0 clean, 1 regression detected, 2 usage or I/O error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"nbtrie/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		maxDrop    = fs.Float64("max-drop", 25, "tolerated throughput drop per shared point, in percent")
		allocSlack = fs.Float64("alloc-slack", 0.25, "tolerated absolute rise per allocs/op pin")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: benchcheck [flags] baseline.json candidate.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	baseline, err := bench.ReadArtifact(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchcheck: baseline:", err)
		return 2
	}
	candidate, err := bench.ReadArtifact(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchcheck: candidate:", err)
		return 2
	}
	if baseline.GOMAXPROCS != candidate.GOMAXPROCS {
		// Non-fatal: thread-scaling points measured under different core
		// budgets are apples to oranges, and the generous -max-drop is
		// what absorbs the difference. Say so instead of failing — the
		// baseline was simply recorded on different hardware.
		fmt.Fprintf(stderr,
			"benchcheck: warning: GOMAXPROCS differs (baseline %d, candidate %d); throughput points are not directly comparable and only the -max-drop %.0f%% tolerance bridges the gap\n",
			baseline.GOMAXPROCS, candidate.GOMAXPROCS, *maxDrop)
	}
	regs, err := bench.CompareArtifacts(baseline, candidate, bench.CompareOptions{
		MaxDrop:    *maxDrop / 100,
		AllocSlack: *allocSlack,
	})
	if err != nil {
		fmt.Fprintln(stderr, "benchcheck:", err)
		return 2
	}
	if len(regs) > 0 {
		fmt.Fprintf(stderr, "benchcheck: figure %s: %d regression(s) vs %s:\n",
			baseline.Figure, len(regs), fs.Arg(0))
		for _, r := range regs {
			fmt.Fprintln(stderr, "  FAIL", r.Message)
		}
		return 1
	}
	fmt.Fprintf(stdout, "benchcheck: figure %s: ok (%d baseline series, tolerance -%.0f%% ops/sec, +%.2f allocs/op, +%.0f%% B/op)\n",
		baseline.Figure, len(baseline.Series), *maxDrop, *allocSlack, 100*bench.BytesSlack)
	return 0
}
