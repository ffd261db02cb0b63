// Command bench is the repository's benchmark: five model-checking
// workloads run through the public facade, checked against pinned answers,
// measured end to end (time to verdict, states per second, allocations per
// state, set-up time). See README.md in this directory.
//
//	go run -C bench .                              full session, all workloads interleaved
//	go run -C bench . -workload NAME -seconds 16   one workload for a fixed time (driver mode)
//	go run -C bench . -workload NAME -trace 1      per-layer numbers (runs ./layers)
//	go run -C bench . -compare a.json b.json       compare two result files
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"time"

	"mpbasset/bench/suite"
)

func main() {
	workload := flag.String("workload", "", "run only this workload (default: all, interleaved)")
	seed := flag.Int64("seed", 1, "orders the checks inside a multi-check workload; the models are fixed")
	seconds := flag.Int("seconds", 0, "measure each workload for about this long (default: the rep counts of the workload table)")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass (./layers) instead of the end-to-end measurement")
	compare := flag.Bool("compare", false, "compare two result files: -compare base.json change.json")
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = compareFiles(os.Stdout, flag.Args())
	case *trace != 0:
		err = runLayers(os.Args[1:])
	default:
		err = run(*workload, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errFailed is returned when a check missed its pin or a comparison found a
// regression: the numbers were printed, the exit code says not to trust them.
var errFailed = errors.New("failed")

// runLayers hands the traced pass to the layers command. It is a separate
// program behind a build tag because it calls the engines' internal entry
// points: a change to one of their signatures may break it, but not the
// end-to-end measurement.
func runLayers(args []string) error {
	cmd := exec.Command("go", append([]string{"run", "-tags", "benchlayers", "./layers"}, args...)...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	return cmd.Run()
}

// minReps is the fewest reps a time-limited run takes, however short the
// limit: a best-of-N below five does not repeat on the reference machine.
const minReps = 5

// lane is one workload's share of a session.
type lane struct {
	w      *suite.Workload
	checks []suite.Check
	setup  []float64
	reps   []suite.Rep
	walls  []float64
}

// full reports whether the lane has its reps: the table's count, or as many
// as fit in the time limit.
func (l *lane) full(seconds int) bool {
	if seconds == 0 {
		return len(l.reps) >= l.w.Reps
	}
	spent := 0.0
	for _, w := range l.walls {
		spent += w
	}
	return len(l.reps) >= minReps && spent+suite.Median(l.walls) > float64(seconds)
}

func run(workload string, seed int64, seconds int) error {
	runtime.GOMAXPROCS(suite.Procs)
	var lanes []*lane
	for i := range suite.Workloads {
		w := &suite.Workloads[i]
		if workload == "" || workload == w.Name {
			lanes = append(lanes, &lane{w: w, checks: w.Ordered(seed)})
		}
	}
	if len(lanes) == 0 {
		return fmt.Errorf("unknown workload %q", workload)
	}

	// The host reference loop runs before and after the set-up batches and
	// once per round of reps; its best time scales every timing of the run.
	ref := []float64{suite.HostRef()}

	// Set-up is measured before the timed reps and is not part of verdict_s.
	for _, l := range lanes {
		setup, err := suite.Setup(l.checks)
		if err != nil {
			return fmt.Errorf("%s: %w", l.w.Name, err)
		}
		l.setup = setup
	}

	// Reps go round-robin across the workloads, with the host reference
	// loop as one more lane, so that a slow period of the host hits every
	// workload alike and each workload samples the whole session.
	for pending := true; pending; {
		ref = append(ref, suite.HostRef())
		pending = false
		for _, l := range lanes {
			if l.full(seconds) {
				continue
			}
			start := time.Now()
			l.reps = append(l.reps, suite.RunRep(l.checks))
			l.walls = append(l.walls, time.Since(start).Seconds())
			pending = true
		}
	}
	res := suite.NewResult(seed)
	res.HostRefS = suite.Sample{Value: suite.Min(ref), Stat: "min", Reps: ref}

	attempted, failed := 0, 0
	for _, l := range lanes {
		wr := suite.Summarize(l.w, l.setup, l.reps, res.HostRefS.Value)
		res.Workloads = append(res.Workloads, wr)
		attempted += wr.Attempted
		failed += wr.Failed
	}
	report(res)
	if err := suite.Write("result.json", res); err != nil {
		return err
	}
	if workload != "" {
		values := make(map[string]float64)
		for name, s := range res.Workloads[0].Metrics {
			values[name] = s.Value
		}
		if err := suite.DriverLine(os.Stdout, attempted, failed, suite.EndToEnd, values); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d checks missed their pinned answer: %w", failed, attempted, errFailed)
	}
	return nil
}

// report prints every end-to-end metric of every workload by name, with its
// unit, the statistic it is and the rep values around it; for the timings,
// which are scaled to the quiet reference machine, also the value as the
// clock measured it.
func report(res *suite.Result) {
	ref := res.HostRefS
	fmt.Printf("%s GOMAXPROCS=%d seed=%d\n", res.GoVersion, res.GOMAXPROCS, res.Seed)
	fmt.Printf("host.ref_s %.6g s (min of %d, median %.6g): timings are scaled by %.3f / %.6g = %.4f\n",
		ref.Value, len(ref.Reps), suite.Median(ref.Reps), suite.RefNominal, ref.Value, suite.RefNominal/ref.Value)
	for _, wr := range res.Workloads {
		fmt.Printf("\n%s\n", wr.Name)
		for _, m := range suite.EndToEnd {
			s := wr.Metrics[m.Name]
			raw := ""
			if s.Raw != 0 {
				raw = fmt.Sprintf("  raw %.6g", s.Raw)
			}
			fmt.Printf("  %-22s %14.6g %-13s %-6s of %2d  [min %.6g  median %.6g  max %.6g]%s\n",
				m.Name, s.Value, m.Unit, s.Stat, len(s.Reps), suite.Min(s.Reps), suite.Median(s.Reps), suite.Max(s.Reps), raw)
		}
		fmt.Printf("  %-22s %14.6g %-13s %d of %d checks\n", "failed_share", float64(wr.Failed)/float64(wr.Attempted), "ratio", wr.Failed, wr.Attempted)
		for _, f := range wr.Failures {
			fmt.Printf("    FAILED %s\n", f)
		}
	}
	fmt.Println()
}
