package suite

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestStatistics(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	// Expected quartiles are Python's statistics.quantiles(vs, n=4).
	for _, tc := range []struct {
		vs                  []float64
		min, median, q1, q3 float64
	}{
		{[]float64{7}, 7, 7, 7, 7},
		{[]float64{2, 1}, 1, 1.5, 0.75, 2.25},
		{[]float64{5, 3, 1, 4, 2}, 1, 3, 1.5, 4.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 1, 5.5, 2.75, 8.25},
		{[]float64{1.36, 1.41, 1.39, 2.01, 1.44, 1.38, 1.52, 1.37}, 1.36, 1.4, 1.3725, 1.5},
	} {
		q1, q3 := Quartiles(tc.vs)
		if Min(tc.vs) != tc.min || !near(Median(tc.vs), tc.median) || !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("%v: min %v median %v quartiles %v %v, want %v %v %v %v",
				tc.vs, Min(tc.vs), Median(tc.vs), q1, q3, tc.min, tc.median, tc.q1, tc.q3)
		}
	}
	if vs := []float64{3, 1, 2}; Max(vs) != 3 || !reflect.DeepEqual(vs, []float64{3, 1, 2}) {
		t.Errorf("Max wrong or input reordered: %v", vs)
	}
}

func TestJudge(t *testing.T) {
	lower := Metric{Name: "t", Better: "lower", Bound: 0.10}
	higher := Metric{Name: "r", Better: "higher", Bound: 0.10}
	tight := []float64{1.00, 1.01, 1.02, 1.01, 1.00}
	scale := func(vs []float64, f float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{1.0, 1.3, 1.1, 1.6, 1.2} // spread wider than the bound
	for _, tc := range []struct {
		name string
		m    Metric
		a, b []float64
		want Outcome
	}{
		{"same code", lower, tight, tight, Same},
		{"within the bound", lower, tight, scale(tight, 1.08), Same},
		{"slower than the bound", lower, tight, scale(tight, 1.2), Worse},
		{"faster than the bound", lower, tight, scale(tight, 0.8), Better},
		{"rate dropped", higher, tight, scale(tight, 0.8), Worse},
		{"rate rose", higher, tight, scale(tight, 1.2), Better},
		{"noisy and overlapping", lower, noisy, scale(noisy, 1.2), Unresolved},
		{"noisy, equal values", lower, noisy, noisy, Unresolved},
		{"noisy but disjoint above", lower, noisy, scale(noisy, 2), Worse},
		{"noisy but disjoint below", lower, noisy, scale(noisy, 0.5), Better},
		{"noisy rate, disjoint below", higher, noisy, scale(noisy, 0.5), Worse},
		{"one noisy side is enough", lower, tight, noisy, Unresolved},
	} {
		if got := Judge(tc.m, Min(tc.a), Min(tc.b), tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . - (at most 64)", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range Workloads {
		use(w.Name)
		ids := make(map[string]bool)
		for _, c := range w.Checks {
			if !name.MatchString(c.ID) || ids[c.ID] {
				t.Errorf("%s: check id %q is malformed or repeated", w.Name, c.ID)
			}
			ids[c.ID] = true
		}
	}
	for _, m := range append(append([]Metric(nil), EndToEnd...), PerLayer...) {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root and the code
// listing exactly the same workloads and metrics.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("paths %v, want [bench]", file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", file.RunSeconds)
	}
	if len(file.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(file.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if got := file.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, at most 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []metric, want []Metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the code %+v", kind, i, g, m)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			case bounded && (g.Bound == nil || *g.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the code, and it must be in (0, 0.25]", m.Name, g.Bound, m.Bound)
			}
		}
	}
	same("end_to_end", file.EndToEnd, EndToEnd, true)
	same("per_layer", file.PerLayer, PerLayer, false)
}

// TestSetupProbe builds every check of every workload and runs the
// MaxStates 1 probe that setup_s times. No full workload runs here.
func TestSetupProbe(t *testing.T) {
	for _, w := range Workloads {
		if err := setupOnce(w.Ordered(7)); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if w.Reps < 5 {
			t.Errorf("%s: %d reps, a best-of-N below five does not repeat", w.Name, w.Reps)
		}
	}
}

func TestOrderedIsAPermutationFixedBySeed(t *testing.T) {
	w, ok := ByName("small-suite")
	if !ok {
		t.Fatal("no small-suite")
	}
	ids := func(cs []Check) []string {
		out := make([]string, len(cs))
		for i, c := range cs {
			out[i] = c.ID
		}
		return out
	}
	a, b, c := ids(w.Ordered(1)), ids(w.Ordered(1)), ids(w.Ordered(2))
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different orders: %v, %v", a, b)
	}
	if reflect.DeepEqual(a, c) {
		t.Errorf("seeds 1 and 2 give the same order %v", a)
	}
	in := make(map[string]bool)
	for _, id := range c {
		in[id] = true
	}
	if len(c) != len(w.Checks) || len(in) != len(w.Checks) {
		t.Errorf("order %v is not a permutation of the %d checks", c, len(w.Checks))
	}
}

func TestSummarize(t *testing.T) {
	w := &Workload{Name: "w", Checks: []Check{{ID: "c", Pin: Pin{States: 1000}}}}
	reps := []Rep{
		{VerdictS: 2, Mallocs: 5000, Bytes: 100000, Attempted: 1},
		{VerdictS: 1, Mallocs: 5100, Bytes: 100000, Attempted: 1, Failures: []string{"c: wrong"}},
		{VerdictS: 4, Mallocs: 5200, Bytes: 100000, Attempted: 1},
	}
	// A host twice as slow as the reference: every timing is halved.
	wr := Summarize(w, []float64{3e-5, 1e-5, 2e-5}, reps, 2*RefNominal)
	want := map[string]Sample{
		VerdictS:           {Value: 0.5, Raw: 1},
		StatesPerS:         {Value: 2000, Raw: 1000},
		AllocsPerState:     {Value: 5.1},
		AllocBytesPerState: {Value: 100},
		SetupS:             {Value: 0.5e-5, Raw: 1e-5},
	}
	for name, v := range want {
		if got := wr.Metrics[name]; got.Value != v.Value || got.Raw != v.Raw {
			t.Errorf("%s = %v (raw %v), want %v (raw %v)", name, got.Value, got.Raw, v.Value, v.Raw)
		}
	}
	if got := wr.Metrics[VerdictS].Reps; !reflect.DeepEqual(got, []float64{1, 0.5, 2}) {
		t.Errorf("verdict_s reps %v, want them scaled like the value", got)
	}
	if wr.Attempted != 3 || wr.Failed != 1 {
		t.Errorf("attempted %d failed %d, want 3 and 1", wr.Attempted, wr.Failed)
	}
}
