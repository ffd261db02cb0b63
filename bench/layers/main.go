//go:build benchlayers

// Command layers is the traced run of the benchmark: it runs a workload's
// checks by calling the engines directly, with timing wrappers it owns at
// every pluggable boundary (store, expander, canon) and around the set-up
// calls, and reports where the time went, layer by layer. The end-to-end
// metrics never come from here; see ../README.md.
//
//	go run -C bench -tags benchlayers ./layers [-workload NAME] [-seed N] [-seconds S]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"mpbasset"
	"mpbasset/bench/suite"
)

func main() {
	workload := flag.String("workload", "", "trace only this workload (default: all, one after the other)")
	seed := flag.Int64("seed", 1, "orders the checks inside a multi-check workload")
	seconds := flag.Int("seconds", 0, "repeat the rounds of a workload for about this long (default: one round)")
	flag.Int("trace", 1, "accepted for the benchmark driver; this command always traces")
	flag.Parse()
	runtime.GOMAXPROCS(suite.Procs)

	failed := 0
	found := false
	for i := range suite.Workloads {
		w := &suite.Workloads[i]
		if *workload != "" && *workload != w.Name {
			continue
		}
		found = true
		out, err := traceWorkload(w, *seed, *seconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "layers:", err)
			os.Exit(1)
		}
		failed += len(out.Failures)
		if *workload != "" {
			if err := suite.DriverLine(os.Stdout, out.Attempted, len(out.Failures), suite.PerLayer, out.Metrics); err != nil {
				fmt.Fprintln(os.Stderr, "layers:", err)
				os.Exit(1)
			}
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "layers: unknown workload %q\n", *workload)
		os.Exit(1)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "layers: %d checks missed their pinned answer\n", failed)
		os.Exit(1)
	}
}

// traceFile is the schema of out/trace-<workload>.json.
type traceFile struct {
	Workload  string             `json:"workload"`
	GoVersion string             `json:"go_version"`
	Seed      int64              `json:"seed"`
	Rounds    int                `json:"rounds"`
	Attempted int                `json:"attempted"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Spans are the sampled spans of the first traced rep: every check,
	// search and set-up call, and one layer call in 64.
	Spans []span `json:"spans"`
}

// traceWorkload runs rounds of {untraced rep, untraced sequential twin of a
// parallel workload, traced rep, host reference loop} and reports each
// per-layer metric as the median over the rounds; the counts are the same
// in every round. Timings that are compared across programs (per-check
// verdict times, the host loop, both sides of the speed-up and overhead
// ratios) are best-of-rounds, like the end-to-end timings.
func traceWorkload(w *suite.Workload, seed int64, seconds int) (*traceFile, error) {
	checks := w.Ordered(seed)
	workers := 0 // of a parallel workload
	twin := make([]suite.Check, len(checks))
	for i, c := range checks {
		_, opts, err := c.Build()
		if err != nil {
			return nil, fmt.Errorf("%s: build: %w", c.ID, err)
		}
		workers = max(workers, opts.Workers)
		build := c.Build
		twin[i] = c
		twin[i].Build = func() (*mpbasset.Protocol, mpbasset.Options, error) {
			p, opts, err := build()
			opts.Workers = 0
			return p, opts, err
		}
	}

	out := &traceFile{Workload: w.Name, GoVersion: runtime.Version(), Seed: seed}
	rounds := make(map[string][]float64)
	var untraced, sequential, traced, ref []float64
	checkS := make([][]float64, len(checks))
	begin := time.Now()
	for {
		out.Rounds++
		gc, rep := withRuntime(func() suite.Rep { return suite.RunRep(checks) })
		out.Attempted += rep.Attempted
		out.Failures = append(out.Failures, rep.Failures...)
		untraced = append(untraced, rep.VerdictS)
		for i, s := range rep.CheckS {
			checkS[i] = append(checkS[i], s)
		}
		states := float64(w.States())
		add(rounds, "runtime.gc_cpu_share", gc.gcCPU/gc.totalCPU)
		add(rounds, "runtime.gc_cycles_per_kstate", gc.cycles/(states/1000))
		add(rounds, "explore.par_cpu_ratio", gc.processCPU/gc.wall)

		if workers > 0 {
			rep := suite.RunRep(twin)
			out.Attempted += rep.Attempted
			out.Failures = append(out.Failures, rep.Failures...)
			sequential = append(sequential, rep.VerdictS)
		}

		tr := newTracer(w.Name)
		t := newTally(tr, workers)
		runtime.GC()
		for _, c := range checks {
			t.check(c)
		}
		out.Attempted += t.checks
		out.Failures = append(out.Failures, t.failures...)
		traced = append(traced, float64(t.searchNS)/1e9)
		for name, v := range t.metrics() {
			add(rounds, name, v)
		}
		if out.Spans == nil {
			out.Spans = tr.spans
		}

		ref = append(ref, suite.HostRef())
		if elapsed := time.Since(begin).Seconds(); elapsed+elapsed/float64(out.Rounds) > float64(seconds) {
			break
		}
	}

	listed := make(map[string]bool)
	for _, m := range suite.PerLayer {
		listed[m.Name] = true
	}
	out.Metrics = make(map[string]float64)
	for name, vs := range rounds {
		out.Metrics[name] = suite.Median(vs)
	}
	for i, c := range checks {
		// Only the small-suite checks have a per-check metric.
		if name := suite.CheckMetric(c.ID); listed[name] {
			out.Metrics[name] = suite.Min(checkS[i])
		}
	}
	if workers > 0 {
		out.Metrics["explore.par_speedup"] = suite.Min(sequential) / suite.Min(untraced)
	}
	out.Metrics["host.ref_s"] = suite.Min(ref)
	// The traced side is the search alone; the untraced side is the whole
	// of mpbasset.Check, whose set-up is microseconds against seconds.
	out.Metrics["trace.overhead_ratio"] = suite.Min(traced) / suite.Min(untraced)

	fmt.Printf("%s  %s GOMAXPROCS=%d seed=%d rounds=%d clock cost %.0f ns/call\n", w.Name, out.GoVersion, suite.Procs, seed, out.Rounds, clockCost)
	for _, m := range suite.PerLayer {
		fmt.Printf("  %-42s %14.6g %s\n", m.Name, out.Metrics[m.Name], m.Unit)
	}
	fmt.Printf("  traced checks %d, failed %d\n\n", out.Attempted, len(out.Failures))
	for _, f := range out.Failures {
		fmt.Printf("    FAILED %s\n", f)
	}
	return out, suite.Write("trace-"+w.Name+".json", out)
}

func add(rounds map[string][]float64, name string, v float64) {
	rounds[name] = append(rounds[name], v)
}

// runtimeDelta is what the Go runtime and the OS accounted to one rep.
type runtimeDelta struct {
	gcCPU, totalCPU, cycles float64
	processCPU, wall        float64
}

// withRuntime runs one untraced rep between two readings of the runtime's
// CPU classes and GC cycle count, and of the process's CPU time.
func withRuntime(f func() suite.Rep) (runtimeDelta, suite.Rep) {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	read := func() (gc, total, cycles, cpu float64) {
		metrics.Read(samples)
		var ru syscall.Rusage
		// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		return samples[0].Value.Float64(), samples[1].Value.Float64(), float64(samples[2].Value.Uint64()), cpu
	}
	// The runtime folds CPU time into its classes when a GC cycle ends, so
	// both readings follow a forced collection.
	runtime.GC()
	gc0, total0, cycles0, cpu0 := read()
	start := time.Now()
	rep := f()
	wall := time.Since(start).Seconds()
	_, _, _, cpu1 := read()
	runtime.GC()
	gc1, total1, cycles1, _ := read()
	// Less the two forced cycles: the one RunRep starts with and the one above.
	return runtimeDelta{gc1 - gc0, total1 - total0, cycles1 - cycles0 - 2, cpu1 - cpu0, wall}, rep
}

// metrics turns one traced rep's tally into the per-layer metrics it can
// answer; the rest (runtime.*, host.ref_s, speed-up, overhead, per-check
// times) come from the untraced reps of the round.
func (t *tally) metrics() map[string]float64 {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	// Shares are of the traced search time without the re-timing probes.
	wall := float64(t.searchNS - t.probeNS.Load())
	// Calls the engines made to the two unhooked core functions: Enabled
	// once per expanded state (the expander is not called on deadlocks),
	// Execute once per key built, the initial states' keys aside.
	enabledCalls := float64(t.expand.calls.Load() + int64(t.stats.Deadlocks))
	executeCalls := float64(t.key.calls.Load() + t.symCanon.calls.Load() - int64(t.checks))
	enabledBusy := t.enabled.perCall() * enabledCalls
	executeBusy := t.execute.perCall() * executeCalls
	wrapped := enabledBusy + executeBusy + t.key.busy() + t.symCanon.busy() + t.expand.busy() + t.store.busy()
	return map[string]float64{
		"core.enabled_ns":       t.enabled.perCall(),
		"core.enabled_share":    ratio(enabledBusy, wall),
		"core.execute_ns":       t.execute.perCall(),
		"core.execute_share":    ratio(executeBusy, wall),
		"core.key_ns":           t.key.perCall(),
		"core.key_share":        ratio(t.key.busy(), wall),
		"core.events_per_state": ratio(float64(t.stats.Events), float64(t.stats.States)),

		"por.expand_ns":          t.expand.perCall(),
		"por.expand_share":       ratio(t.expand.busy(), wall),
		"por.kept_ratio":         ratio(float64(t.keptEvents.Load()), float64(t.enabledEvents.Load())),
		"por.reduced_ratio":      ratio(float64(t.stats.ReducedExpansions), float64(t.stats.ReducedExpansions+t.stats.FullExpansions)),
		"por.proviso_promotions": float64(t.stats.ProvisoExpansions),
		"por.analysis_s":         t.analysisS,

		"explore.store.seen_ns":                  t.store.perCall(),
		"explore.store.share":                    ratio(t.store.busy(), wall),
		"explore.store.hit_ratio":                ratio(float64(t.hits.Load()), float64(t.probes.Load())),
		"explore.store.retained_bytes_per_state": ratio(float64(t.retainedBytes), float64(t.retainedStates)),
		"explore.batch_keys_per_call":            ratio(float64(t.batchKeys.Load()), float64(t.batchCalls.Load())),
		// What is left of the search once the wrapped layers are taken
		// out: stack or queue, trace links, limiter, and on the parallel
		// engines scheduling and waiting. There the layers' busy time adds
		// up over the goroutines (a share can exceed 1), so it is set
		// against wall time × goroutines.
		"explore.engine_share":  1 - ratio(wrapped, wall*t.goroutines),
		"explore.revisit_ratio": ratio(float64(t.stats.Revisits), float64(t.stats.Events)),

		"refine.split_s":         t.splitS,
		"refine.transitions_out": float64(t.transitionsOut),
		"symmetry.new_s":         t.symNewS,
		"symmetry.permutations":  float64(t.permutations),
		"symmetry.canon_ns":      t.symCanon.perCall(),
		"symmetry.canon_share":   ratio(t.symCanon.busy(), wall),
		"liveness.instrument_s":  t.instrumentS,
		"liveness.red_ratio":     ratio(float64(t.redStates), float64(t.redOf)),
	}
}
