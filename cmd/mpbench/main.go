// Command mpbench regenerates the paper's evaluation tables: Table I
// (quorum semantics) and Table II (transition refinement), plus the
// state-space analysis of §II-C, a liveness table (the bundled protocols'
// eventuality properties under nested DFS) and a store-tier table
// (collapse compression against the exact stores, lossy bitstate against
// an equal-memory exact cap). It doubles as the CI determinism gate: -out
// serializes every table of a run into a machine-readable report, and
// -baseline gates the run against a committed report, failing on verdict
// or state/event-count drift (wall-clock is reported, not gated).
//
//	mpbench -table 1
//	mpbench -table 2 -budget 2m
//	mpbench -table 2 -paper          # includes Echo Multicast (3,1,1,1)
//	mpbench -table 3                 # liveness: NDFS unreduced/SPOR/weakly fair
//	mpbench -table 4                 # store tiers: collapse + lossy bitstate
//	mpbench -analysis
//	mpbench -max-states 100000 -budget 30s -out BENCH_ci.json -baseline BENCH_baseline.json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mpbasset/internal/cli"
	"mpbasset/internal/eval"
)

func main() {
	var (
		table    = flag.Int("table", 0, "table to regenerate: 1, 2, 3 (liveness) or 4 (store tiers); 0 = all")
		budget   = flag.Duration("budget", time.Minute, "wall-clock limit per cell (the paper's 48h-timeout analogue)")
		maxSt    = flag.Int("max-states", 0, "state limit per cell (0 = unlimited); fixes the explored work so -baseline compares like against like")
		paper    = flag.Bool("paper", false, "run paper-scale workloads (adds Echo Multicast (3,1,1,1); doubles Paxos ballots)")
		analysis = flag.Bool("analysis", false, "print the paper's §II-C/§IV-A state-space analysis")
		verify   = flag.Bool("verify", true, "fail if any verdict deviates from the paper's")
		jsonOut  = flag.Bool("json", false, "emit machine-readable JSON instead of the table layout")
		outFile  = flag.String("out", "", "write the run's machine-readable report (all tables) to this file, e.g. BENCH_ci.json")
		baseline = flag.String("baseline", "", "gate the run against this committed report (e.g. BENCH_baseline.json): exit 1 on verdict or state/event-count drift")
		memB     = flag.String("mem-budget", "", "visited-set memory budget per cell, e.g. 512M: past it, fingerprints spill to sorted runs on disk (empty = in-memory only)")
		spillDir = flag.String("spill-dir", "", "directory for spill run files (default: a temporary directory per cell; needs -mem-budget)")
		compress = flag.Bool("compress", false, "run the stateful cells with collapse compression (results bit-identical, only wall-clock moves)")
		lossy    = flag.Bool("lossy", false, "run the stateful cells over the EXPLICITLY LOSSY bitstate store — cell state counts become coverage claims")
		bitsB    = flag.String("bitstate-bytes", "", "bit-array size for -lossy, e.g. 64M (empty = 64M default; needs -lossy)")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "mpbench:", err)
		os.Exit(1)
	}
	if *analysis {
		// The §II-C analysis runs no search; engine flags are irrelevant.
		eval.PrintAnalysis(os.Stdout)
		return
	}
	memBudget, err := cli.ParseBytes(*memB)
	if err != nil {
		fail(err)
	}
	bitstateBytes, err := cli.ParseBytes(*bitsB)
	if err != nil {
		fail(err)
	}
	opts := eval.Options{
		Budget: *budget, MaxStates: *maxSt, Paper: *paper,
		StoreBudgetBytes: memBudget, SpillDir: *spillDir,
		Compress: *compress, Lossy: *lossy, BitstateBytes: bitstateBytes,
	}
	// One up-front pass through the facade's rule table, so -spill-dir
	// without -mem-budget or -lossy with the liveness table is rejected
	// before any cell runs.
	if err := opts.Validate(*table == 0 || *table == 3); err != nil {
		fail(err)
	}
	var report eval.Report
	emit := func(title string, rows []eval.Row) {
		report.Tables = append(report.Tables, eval.TableToJSON(title, rows))
		if *jsonOut {
			if err := eval.WriteJSON(os.Stdout, title, rows); err != nil {
				fail(err)
			}
			return
		}
		eval.FormatRows(os.Stdout, title, rows)
	}
	if *table == 0 || *table == 1 {
		rows, err := eval.Table1(opts)
		if err != nil {
			fail(err)
		}
		emit("Table I — quorum semantics (cf. paper Table I)", rows)
		if *verify {
			if err := eval.Verify(rows); err != nil {
				fail(err)
			}
		}
		fmt.Println()
	}
	if *table == 0 || *table == 2 {
		rows, err := eval.Table2(opts)
		if err != nil {
			fail(err)
		}
		emit("Table II — transition refinement (cf. paper Table II)", rows)
		if *verify {
			if err := eval.Verify(rows); err != nil {
				fail(err)
			}
		}
		if *table == 0 {
			fmt.Println()
		}
	}
	if *table == 0 || *table == 3 {
		rows, err := eval.LivenessTable(opts)
		if err != nil {
			fail(err)
		}
		emit("Liveness — nested DFS over the Büchi product", rows)
		if *verify {
			if err := eval.Verify(rows); err != nil {
				fail(err)
			}
		}
		if *table == 0 {
			fmt.Println()
		}
	}
	if *table == 0 || *table == 4 {
		// No Verify here: the compression row's cells are pinned against
		// each other by the baseline determinism gate, and the bitstate
		// row's cells are coverage claims with no paper verdict to match.
		rows, err := eval.StoreTierTable(opts)
		if err != nil {
			fail(err)
		}
		emit("Store tiers — collapse compression and lossy bitstate", rows)
	}
	if *outFile != "" {
		if err := eval.WriteReportFile(*outFile, report); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "mpbench: report written to %s\n", *outFile)
	}
	if *baseline != "" {
		base, err := eval.ReadReportFile(*baseline)
		if err != nil {
			fail(err)
		}
		regs := eval.CompareReports(base, report)
		if len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "mpbench: regression:", r)
			}
			fail(fmt.Errorf("%d regression(s) against %s", len(regs), *baseline))
		}
		fmt.Fprintf(os.Stderr, "mpbench: no regressions against %s\n", *baseline)
	}
}
