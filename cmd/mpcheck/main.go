// Command mpcheck model checks one of the bundled fault-tolerant protocols
// under a chosen search strategy — the CLI face of the library.
//
// Usage examples:
//
//	mpcheck -protocol paxos -setting 2,3,1 -search spor
//	mpcheck -protocol faulty-paxos -setting 2,3,1 -trace
//	mpcheck -protocol multicast -setting 2,1,2,1 -trace -trace-dot attack.dot
//	mpcheck -protocol storage -setting 3,2 -wrong -search unreduced
//	mpcheck -protocol paxos -setting 2,3,1 -model single -search dpor
//
// Exit status: 0 verified, 2 counterexample found, 1 error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mpbasset"
	"mpbasset/internal/cli"
	"mpbasset/internal/core"
	"mpbasset/internal/explore"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is mpcheck without the process: it returns the exit status and
// writes the report to stdout and errors to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	code, err := check(args, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "mpcheck:", err)
		return 1
	}
	return code
}

// check maps the flags onto mpbasset.Options, lets the facade validate,
// build and run the search, and prints the outcome. Which flags combine is
// the facade's rule table's business, not this function's.
func check(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("mpcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		protocol = fs.String("protocol", "paxos", "protocol: paxos | faulty-paxos | multicast | storage")
		setting  = fs.String("setting", "", "process counts, e.g. 2,3,1 (paxos P,A,L), 3,0,1,1 (multicast HR,HI,BR,BI), 3,1 (storage B,R)")
		model    = fs.String("model", "quorum", "modeling style: quorum | single")
		split    = fs.String("split", "none", "transition refinement: none | reply | quorum | combined")
		search   = fs.String("search", "spor", "search: spor | unreduced (alias: dfs) | bfs | stateless | dpor")
		wrong    = fs.Bool("wrong", false, "check the deliberately wrong storage specification")
		sym      = fs.Bool("symmetry", false, "enable role-based symmetry reduction")
		trace    = fs.Bool("trace", false, "print the annotated counterexample trace, if any")
		budget   = fs.Duration("budget", 5*time.Minute, "wall-clock limit")
		maxSt    = fs.Int("max-states", 0, "state limit (0 = unlimited)")
		workers  = fs.Int("workers", 0, "run -search bfs as frontier-parallel BFS with this many workers (0 = sequential); every other search is one sequential walk and ignores it")
		chunk    = fs.Int("chunk", 0, "frontier nodes a parallel BFS worker claims per grab (0 = adaptive; needs -workers with -search bfs)")
		batch    = fs.Int("batch", 0, "successor keys a parallel BFS worker buffers per batched visited-set insert (0 = default 64; needs -workers with -search bfs)")
		property = fs.String("property", "", "check this liveness property instead of the safety invariant: decided (paxos, faulty-paxos) | delivered (multicast) | reads-complete (storage); runs nested DFS, so it needs a DFS search (spor, unreduced, dfs)")
		fair     = fs.Bool("fair", false, "restrict liveness counterexamples to weakly fair schedules (needs -property; forces full expansion — the fairness monitor observes every transition)")
		memB     = fs.String("mem-budget", "", "visited-set memory budget, e.g. 512M or 2G: past it, fingerprints spill to sorted runs on disk (empty = in-memory only; spor, unreduced and bfs searches)")
		spillDir = fs.String("spill-dir", "", "directory for spill run files (default: a temporary directory; needs -mem-budget)")
		compress = fs.Bool("compress", false, "collapse compression: intern per-process and message-bag components in a shared table so stored state keys shrink to component IDs (stateful searches; verdicts and stats identical to uncompressed)")
		lossy    = fs.Bool("lossy", false, "EXPLICITLY LOSSY bitstate store: k hash probes over a fixed bit array instead of an exact visited set — coverage sweeps past exact-store limits; a 'Verified' is a coverage claim, not a verdict (stateful searches, safety only)")
		bitsB    = fs.String("bitstate-bytes", "", "bit-array size for -lossy, e.g. 64M or 1G (empty = 64M default; needs -lossy)")
		dotOut   = fs.String("dot", "", "write the full state graph (small models!) as Graphviz DOT to this file")
		traceDot = fs.String("trace-dot", "", "write the counterexample trace as Graphviz DOT to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	opts := mpbasset.Options{
		TrackTrace:  *trace || *traceDot != "",
		Workers:     *workers,
		ChunkSize:   *chunk,
		BatchSize:   *batch,
		SpillDir:    *spillDir,
		Compress:    *compress,
		Lossy:       *lossy,
		MaxStates:   *maxSt,
		MaxDuration: *budget,
	}
	var err error
	if opts.Search, err = cli.ParseSearch(*search); err != nil {
		return 0, err
	}
	if opts.Split, err = cli.ParseSplit(*split); err != nil {
		return 0, err
	}
	if opts.StoreBudgetBytes, err = cli.ParseBytes(*memB); err != nil {
		return 0, err
	}
	if opts.BitstateBytes, err = cli.ParseBytes(*bitsB); err != nil {
		return 0, err
	}
	if opts.Property, err = cli.BuildProperty(*protocol, *setting, *model, *property, *fair); err != nil {
		return 0, err
	}
	p, roles, err := cli.BuildProtocol(*protocol, *setting, *model, *wrong)
	if err != nil {
		return 0, err
	}
	if *sym {
		opts.SymmetryRoles = roles
	}
	plan, err := mpbasset.Prepare(p, opts)
	if err != nil {
		return 0, err
	}
	// The searched protocol: refined and instrumented, the one traces and
	// the -dot graph are over.
	p = plan.Protocol()

	if *sym {
		fmt.Fprintf(stdout, "symmetry group: %d permutations\n", plan.Permutations())
	}
	fmt.Fprintf(stdout, "checking %s [%s, %s]\n", p.Name, *search, opts.Split)
	if prop := opts.Property; prop != nil {
		kind := "liveness property"
		if prop.WeakFair {
			kind = "liveness property under weak fairness"
		}
		fmt.Fprintf(stdout, "property:  %q (%s)\n", prop.Name, kind)
	}
	if *workers > 0 {
		fmt.Fprintf(stdout, "workers:   %d (%s)\n", *workers, plan.Engine())
	}
	if opts.StoreBudgetBytes > 0 {
		fmt.Fprintf(stdout, "mem-budget: %d bytes (visited set spills to disk past it)\n", opts.StoreBudgetBytes)
	}
	if *compress {
		fmt.Fprintln(stdout, "compress:  collapse compression on (stored keys are interned component IDs)")
	}
	if *lossy {
		fmt.Fprintln(stdout, "lossy:     bitstate store — 'Verified' is a coverage claim, not a verdict")
	}
	if *dotOut != "" {
		if err := writeGraphDOT(stdout, p, *dotOut); err != nil {
			return 0, err
		}
	}
	res, err := plan.Run()
	if err != nil {
		return 0, err
	}
	report(stdout, res)
	if *trace && len(res.Trace) > 0 {
		if res.CycleLen > 0 {
			fmt.Fprintf(stdout, "counterexample (lasso; the final %d steps form the accepting cycle):\n", res.CycleLen)
		} else if res.Stutter {
			fmt.Fprintln(stdout, "counterexample (lasso; the final state deadlocks while accepting):")
		} else {
			fmt.Fprintln(stdout, "counterexample:")
		}
		if err := explore.RenderTrace(stdout, p, res.Trace); err != nil {
			return 0, err
		}
	}
	if *traceDot != "" && len(res.Trace) > 0 {
		if err := writeTraceDOT(stdout, p, res.Trace, *traceDot); err != nil {
			return 0, err
		}
	}
	if res.Verdict == explore.VerdictViolated {
		return 2, nil
	}
	return 0, nil
}

func report(w io.Writer, res *explore.Result) {
	st := res.Stats
	fmt.Fprintf(w, "verdict:   %s\n", res.Verdict)
	if res.Violation != nil {
		fmt.Fprintf(w, "violation: %v\n", res.Violation)
	}
	if res.Stutter {
		fmt.Fprintf(w, "lasso:     %d-step stem to a deadlocked accepting state (stutter cycle)\n", len(res.Trace))
	} else if res.CycleLen > 0 {
		fmt.Fprintf(w, "lasso:     %d-step stem + %d-step accepting cycle\n", len(res.Trace)-res.CycleLen, res.CycleLen)
	}
	fmt.Fprintf(w, "states:    %d (%d revisits)\n", st.States, st.Revisits)
	fmt.Fprintf(w, "events:    %d\n", st.Events)
	if st.RedStates > 0 {
		fmt.Fprintf(w, "red:       %d product states visited by the nested searches\n", st.RedStates)
	}
	fmt.Fprintf(w, "deadlocks: %d\n", st.Deadlocks)
	fmt.Fprintf(w, "depth:     %d\n", st.MaxDepth)
	fmt.Fprintf(w, "time:      %s\n", st.Duration.Round(time.Millisecond))
	if st.ReducedExpansions+st.FullExpansions > 0 {
		fmt.Fprintf(w, "expansions: %d reduced / %d full", st.ReducedExpansions, st.FullExpansions)
		if st.ProvisoExpansions > 0 {
			fmt.Fprintf(w, " (%d promoted by the ignoring proviso)", st.ProvisoExpansions)
		}
		fmt.Fprintln(w)
	}
	if st.SpillRuns > 0 || st.DiskProbes > 0 {
		fmt.Fprintf(w, "spill:     %d runs, %d bytes written, %d disk probes\n",
			st.SpillRuns, st.SpillBytes, st.DiskProbes)
	}
	if st.BitstateFill > 0 {
		fmt.Fprintf(w, "bitstate:  %.4f fill, ~%.2e omission probability (state count is a coverage claim, not a census)\n",
			st.BitstateFill, st.BitstateOmission)
	}
}

func writeGraphDOT(w io.Writer, p *core.Protocol, path string) error {
	g, err := explore.BuildGraph(p, 200000)
	if err != nil {
		return fmt.Errorf("state graph for -dot: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteDOT(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "state graph (%d states, %d edges) written to %s\n", len(g.Nodes), g.NumEdges(), path)
	return nil
}

func writeTraceDOT(w io.Writer, p *core.Protocol, trace []explore.Step, path string) error {
	init, err := p.InitialState()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := explore.WriteTraceDOT(f, init.Key(), trace); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "trace written to %s\n", path)
	return nil
}
