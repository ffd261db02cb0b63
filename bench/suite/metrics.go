package suite

// Metric names a measured quantity. BENCHMARK.json lists the same metrics;
// a test keeps the two in step.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share by which an end-to-end metric may worsen before a
	// comparison counts it as a regression; per-layer metrics have none.
	Bound float64
}

// End-to-end metric names.
const (
	VerdictS           = "verdict_s"
	StatesPerS         = "states_per_s"
	AllocsPerState     = "allocs_per_state"
	AllocBytesPerState = "alloc_bytes_per_state"
	SetupS             = "setup_s"
)

// EndToEnd is what a user of the checker pays for, per workload. Timings
// are the best rep of a run (bursts of host noise are additive, so the
// minimum repeats where the median does not), scaled to the quiet reference
// machine by the run's host reference loop (see RefNominal); the allocation
// figures are medians, and repeat to five digits on the sequential
// workloads. Failures are not a metric with a bound: any check that misses
// its pin fails the run (see WorkloadResult.Failed).
var EndToEnd = []Metric{
	{VerdictS, "s", "lower", 0.25},
	{StatesPerS, "states/s", "higher", 0.25},
	{AllocsPerState, "allocs/state", "lower", 0.03},
	{AllocBytesPerState, "B/state", "lower", 0.03},
	{SetupS, "s", "lower", 0.25},
}

// PerLayer lists the metrics of the traced run (../layers), in the order it
// prints them. A metric that does not apply to a workload (symmetry on a
// workload without symmetry, a per-check time outside small-suite, the
// speed-up of a sequential workload) reads 0 there.
var PerLayer = perLayer()

func perLayer() []Metric {
	ms := []Metric{
		{Name: "core.enabled_ns", Unit: "ns", Better: "lower"},
		{Name: "core.enabled_share", Unit: "ratio", Better: "lower"},
		{Name: "core.execute_ns", Unit: "ns", Better: "lower"},
		{Name: "core.execute_share", Unit: "ratio", Better: "lower"},
		{Name: "core.key_ns", Unit: "ns", Better: "lower"},
		{Name: "core.key_share", Unit: "ratio", Better: "lower"},
		{Name: "core.events_per_state", Unit: "ratio", Better: "lower"},
		{Name: "por.expand_ns", Unit: "ns", Better: "lower"},
		{Name: "por.expand_share", Unit: "ratio", Better: "lower"},
		{Name: "por.kept_ratio", Unit: "ratio", Better: "lower"},
		{Name: "por.reduced_ratio", Unit: "ratio", Better: "higher"},
		{Name: "por.proviso_promotions", Unit: "count", Better: "lower"},
		{Name: "por.analysis_s", Unit: "s", Better: "lower"},
		{Name: "explore.store.seen_ns", Unit: "ns", Better: "lower"},
		{Name: "explore.store.share", Unit: "ratio", Better: "lower"},
		{Name: "explore.store.hit_ratio", Unit: "ratio", Better: "lower"},
		{Name: "explore.store.retained_bytes_per_state", Unit: "B/state", Better: "lower"},
		{Name: "explore.batch_keys_per_call", Unit: "ratio", Better: "higher"},
		{Name: "explore.engine_share", Unit: "ratio", Better: "lower"},
		{Name: "explore.revisit_ratio", Unit: "ratio", Better: "lower"},
		{Name: "explore.par_speedup", Unit: "ratio", Better: "higher"},
		{Name: "explore.par_cpu_ratio", Unit: "ratio", Better: "lower"},
		{Name: "refine.split_s", Unit: "s", Better: "lower"},
		{Name: "refine.transitions_out", Unit: "count", Better: "lower"},
		{Name: "symmetry.new_s", Unit: "s", Better: "lower"},
		{Name: "symmetry.permutations", Unit: "count", Better: "lower"},
		{Name: "symmetry.canon_ns", Unit: "ns", Better: "lower"},
		{Name: "symmetry.canon_share", Unit: "ratio", Better: "lower"},
		{Name: "liveness.instrument_s", Unit: "s", Better: "lower"},
		{Name: "liveness.red_ratio", Unit: "ratio", Better: "lower"},
	}
	small, _ := ByName("small-suite")
	for _, c := range small.Checks {
		ms = append(ms, Metric{Name: CheckMetric(c.ID), Unit: "s", Better: "lower"})
	}
	return append(ms,
		Metric{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
		Metric{Name: "runtime.gc_cycles_per_kstate", Unit: "1/kstate", Better: "lower"},
		Metric{Name: "host.ref_s", Unit: "s", Better: "lower"},
		Metric{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	)
}

// CheckMetric names the per-check time-to-verdict of a small-suite check.
func CheckMetric(id string) string { return "check." + id + ".verdict_s" }
