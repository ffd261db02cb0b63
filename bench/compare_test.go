package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpbasset/bench/suite"
)

// result builds a one-workload result file whose timings are the base
// timings times slow and whose allocation counts are the base's times alloc.
func result(slow, alloc float64, failed int, ref float64) *suite.Result {
	scale := func(vs []float64, f float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * f
		}
		return out
	}
	w := &suite.Workload{Name: "w", Checks: []suite.Check{{ID: "c", Pin: suite.Pin{States: 1000}}}}
	var reps []suite.Rep
	for i, s := range scale([]float64{1.00, 1.02, 1.01, 1.03, 1.00}, slow) {
		rep := suite.Rep{VerdictS: s, Mallocs: uint64(200000 * alloc), Bytes: uint64(1e7 * alloc), Attempted: 1}
		if i < failed {
			rep.Failures = []string{"c: wrong"}
		}
		reps = append(reps, rep)
	}
	res := &suite.Result{GoVersion: "go", GOMAXPROCS: 2, Seed: 1}
	res.HostRefS = suite.Sample{Value: ref}
	res.Workloads = []suite.WorkloadResult{suite.Summarize(w, scale([]float64{1e-5, 1.01e-5, 1.02e-5}, slow), reps, suite.RefNominal)}
	return res
}

func TestCompare(t *testing.T) {
	base := result(1, 1, 0, 0.30)
	for _, tc := range []struct {
		name   string
		change *suite.Result
		worse  int
		want   []string // substrings of the report
	}{
		{"same code", result(1, 1, 0, 0.30), 0, []string{"verdict_s", "x1.0000 of base", " same"}},
		{"inside the bounds", result(1.05, 1.01, 0, 0.30), 0, []string{"x1.0500 of base"}},
		{"slower", result(1.4, 1, 0, 0.30), 3, []string{"x1.4000 of base", " worse"}}, // verdict_s, states_per_s, setup_s
		{"faster", result(0.7, 1, 0, 0.30), 0, []string{" better"}},
		{"more allocations", result(1, 1.05, 0, 0.30), 2, []string{"allocs_per_state", " worse"}},
		{"a check fails", result(1, 1, 1, 0.30), 1, []string{"failed_share", "1/5", " worse"}},
		{"different host", result(1, 1, 0, 0.33), 0, []string{"DIFFERENT HOST SPEED"}},
	} {
		var out strings.Builder
		if got := compareResults(&out, base, tc.change); got != tc.worse {
			t.Errorf("%s: %d regressions, want %d\n%s", tc.name, got, tc.worse, out.String())
		}
		for _, s := range tc.want {
			if !strings.Contains(out.String(), s) {
				t.Errorf("%s: report lacks %q\n%s", tc.name, s, out.String())
			}
		}
	}
	var out strings.Builder
	if compareResults(&out, base, base) != 0 || strings.Contains(out.String(), "DIFFERENT HOST") {
		t.Errorf("a file compared with itself:\n%s", out.String())
	}
	missing := result(1, 1, 0, 0.30)
	missing.Workloads[0].Name = "other"
	if compareResults(&out, base, missing) != 1 {
		t.Error("a workload missing from the change is not a regression")
	}
}

func TestCompareFiles(t *testing.T) {
	t.Chdir(t.TempDir())
	if err := suite.Write("a.json", result(1, 1, 0, 0.30)); err != nil {
		t.Fatal(err)
	}
	if err := suite.Write("b.json", result(1.4, 1, 0, 0.30)); err != nil {
		t.Fatal(err)
	}
	a, b := filepath.Join(suite.OutDir, "a.json"), filepath.Join(suite.OutDir, "b.json")
	var out strings.Builder
	if err := compareFiles(&out, []string{a, a}); err != nil {
		t.Errorf("a file against itself: %v", err)
	}
	if err := compareFiles(&out, []string{a, b}); !errors.Is(err, errFailed) {
		t.Errorf("a 40%% slowdown: err %v, want errFailed", err)
	}
	if err := compareFiles(&out, []string{a}); err == nil {
		t.Error("one file accepted")
	}
	if err := compareFiles(&out, []string{a, filepath.Join(os.TempDir(), "no-such-result.json")}); err == nil {
		t.Error("a missing file accepted")
	}
}
