package suite

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// OutDir is where runs write their result and trace files, relative to the
// benchmark's directory. It is not committed.
const OutDir = "out"

// Sample is one reported metric: the value, how it was taken from the reps
// (min, max or median) and the per-rep values behind it, which -compare
// needs for its spread rule. Timings are host-normalised (see RefNominal),
// the reps too; Raw is the value as the clock measured it.
type Sample struct {
	Value float64   `json:"value"`
	Raw   float64   `json:"raw,omitempty"`
	Stat  string    `json:"stat,omitempty"`
	Reps  []float64 `json:"reps,omitempty"`
}

// WorkloadResult is one workload's part of a result file.
type WorkloadResult struct {
	Name      string            `json:"name"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]Sample `json:"metrics"`
}

// Result is the schema of out/result.json.
type Result struct {
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       int64            `json:"seed"`
	HostRefS   Sample           `json:"host_ref_s"`
	Workloads  []WorkloadResult `json:"workloads"`
}

// NewResult starts a result file for the current process.
func NewResult(seed int64) *Result {
	return &Result{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed}
}

// Workload finds a workload's results.
func (r *Result) Workload(name string) (*WorkloadResult, bool) {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i], true
		}
	}
	return nil, false
}

// Summarize turns a workload's set-up batches and reps into its end-to-end
// metrics. hostRef is the best HostRef time of the run the reps come from;
// it scales the timings to the quiet reference machine.
func Summarize(w *Workload, setup []float64, reps []Rep, hostRef float64) WorkloadResult {
	states := float64(w.States())
	scale := RefNominal / hostRef
	wr := WorkloadResult{Name: w.Name, Metrics: make(map[string]Sample)}
	var verdict, rate, allocs, bytes []float64
	for _, rep := range reps {
		wr.Attempted += rep.Attempted
		wr.Failed += len(rep.Failures)
		wr.Failures = append(wr.Failures, rep.Failures...)
		verdict = append(verdict, rep.VerdictS*scale)
		rate = append(rate, states/(rep.VerdictS*scale))
		allocs = append(allocs, float64(rep.Mallocs)/states)
		bytes = append(bytes, float64(rep.Bytes)/states)
	}
	scaledSetup := make([]float64, len(setup))
	for i, s := range setup {
		scaledSetup[i] = s * scale
	}
	wr.Metrics[VerdictS] = Sample{Value: Min(verdict), Raw: Min(verdict) / scale, Stat: "min", Reps: verdict}
	wr.Metrics[StatesPerS] = Sample{Value: Max(rate), Raw: Max(rate) * scale, Stat: "max", Reps: rate}
	wr.Metrics[AllocsPerState] = Sample{Value: Median(allocs), Stat: "median", Reps: allocs}
	wr.Metrics[AllocBytesPerState] = Sample{Value: Median(bytes), Stat: "median", Reps: bytes}
	wr.Metrics[SetupS] = Sample{Value: Min(scaledSetup), Raw: Min(scaledSetup) / scale, Stat: "min", Reps: scaledSetup}
	return wr
}

// Write stores v as indented JSON under OutDir.
func Write(name string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", name, err)
	}
	if err := os.MkdirAll(OutDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(OutDir, name), append(data, '\n'), 0o644)
}

// DriverLine prints the one-line JSON summary a benchmark driver reads as
// the last line of standard output: whether every check met its pin, how
// many were attempted and failed, and the named metrics with their units.
func DriverLine(w io.Writer, attempted, failed int, names []Metric, values map[string]float64) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, make(map[string]value)}
	for _, m := range names {
		line.Metrics[m.Name] = value{values[m.Name], m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
