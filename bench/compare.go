package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"mpbasset/bench/suite"
)

// hostTolerance is how far host.ref_s may differ between two result files
// before the pair is flagged as taken on different machines, or on the same
// machine in different states: the timings are scaled by it, and the scaling
// is only approximately right.
const hostTolerance = 0.05

func readResult(path string) (*suite.Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res suite.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

func compareFiles(out io.Writer, paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two result files, base and change")
	}
	base, err := readResult(paths[0])
	if err != nil {
		return err
	}
	change, err := readResult(paths[1])
	if err != nil {
		return err
	}
	if worse := compareResults(out, base, change); worse > 0 {
		return fmt.Errorf("%d regressions: %w", worse, errFailed)
	}
	return nil
}

// compareResults prints, per workload and end-to-end metric, both values,
// the change's value as a ratio of the base's, and the outcome under the
// metric's bound and the two sides' rep spreads. It returns the number of
// regressions: metrics judged worse, and checks that newly fail.
func compareResults(out io.Writer, base, change *suite.Result) (worse int) {
	fmt.Fprintf(out, "base:   %s GOMAXPROCS=%d seed=%d\n", base.GoVersion, base.GOMAXPROCS, base.Seed)
	fmt.Fprintf(out, "change: %s GOMAXPROCS=%d seed=%d\n", change.GoVersion, change.GOMAXPROCS, change.Seed)
	ratio := change.HostRefS.Value / base.HostRefS.Value
	flag := ""
	if math.Abs(ratio-1) > hostTolerance {
		flag = fmt.Sprintf("  DIFFERENT HOST SPEED (more than %.0f%% apart): the timings below lean on the host normalisation", 100*hostTolerance)
	}
	fmt.Fprintf(out, "host.ref_s %.6g s -> %.6g s (x%.3f of base)%s\n", base.HostRefS.Value, change.HostRefS.Value, ratio, flag)
	for _, bw := range base.Workloads {
		cw, ok := change.Workload(bw.Name)
		if !ok {
			fmt.Fprintf(out, "\n%s: missing from change\n", bw.Name)
			worse++
			continue
		}
		fmt.Fprintf(out, "\n%s\n", bw.Name)
		for _, m := range suite.EndToEnd {
			b, c := bw.Metrics[m.Name], cw.Metrics[m.Name]
			outcome := suite.Judge(m, b.Value, c.Value, b.Reps, c.Reps)
			if outcome == suite.Worse {
				worse++
			}
			fmt.Fprintf(out, "  %-22s %14.6g -> %14.6g %-13s x%.4f of base  bound %4.1f%%  %s\n",
				m.Name, b.Value, c.Value, m.Unit, c.Value/b.Value, 100*m.Bound, outcome)
		}
		outcome := suite.Same
		if cw.Failed*bw.Attempted > bw.Failed*cw.Attempted { // any increase of the failed share
			outcome = suite.Worse
			worse++
		}
		fmt.Fprintf(out, "  %-22s %11d/%-3d -> %11d/%-3d checks failed  %s\n", "failed_share", bw.Failed, bw.Attempted, cw.Failed, cw.Attempted, outcome)
	}
	return worse
}
