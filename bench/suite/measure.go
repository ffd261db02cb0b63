package suite

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"mpbasset"
)

// Rep is what one pass over a workload's checks measured.
type Rep struct {
	// VerdictS is the wall time inside mpbasset.Check, summed over the
	// checks; CheckS splits it per check, in the order the checks ran.
	VerdictS float64
	CheckS   []float64
	// Mallocs and Bytes are the runtime.MemStats deltas around the whole
	// pass, protocol construction included.
	Mallocs, Bytes uint64
	// Failures describes every check that returned an error or missed its
	// pin; Attempted counts the checks run.
	Attempted int
	Failures  []string
}

// RunRep runs the checks once, each with a fresh protocol and store, after
// a forced collection so that every rep starts from the same heap.
func RunRep(checks []Check) Rep {
	var before, after runtime.MemStats
	rep := Rep{CheckS: make([]float64, len(checks))}
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, c := range checks {
		rep.Attempted++
		p, opts, err := c.Build()
		if err != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: build: %v", c.ID, err))
			continue
		}
		start := time.Now()
		res, err := mpbasset.Check(p, opts)
		rep.CheckS[i] = time.Since(start).Seconds()
		rep.VerdictS += rep.CheckS[i]
		if err == nil {
			err = c.Pin.Verify(res)
		}
		if err != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %v", c.ID, err))
		}
	}
	runtime.ReadMemStats(&after)
	rep.Mallocs = after.Mallocs - before.Mallocs
	rep.Bytes = after.TotalAlloc - before.TotalAlloc
	return rep
}

// One set-up takes microseconds, too short to time alone, so set-ups are
// timed in batches: each batch runs them back to back for SetupBatchTime and
// divides by the count.
const (
	SetupBatches   = 21
	SetupBatchTime = 50 * time.Millisecond
)

// Setup times the set-up of the checks: building each protocol (with its
// property and roles) and calling mpbasset.Check with MaxStates 1, which
// runs refinement, the static POR analysis, symmetry-group construction and
// property instrumentation, and stops at the initial state. It returns the
// seconds per set-up of the whole check list, one value per batch.
func Setup(checks []Check) ([]float64, error) {
	batches := make([]float64, SetupBatches)
	for b := range batches {
		start, n := time.Now(), 0
		for time.Since(start) < SetupBatchTime {
			if err := setupOnce(checks); err != nil {
				return nil, err
			}
			n++
		}
		batches[b] = time.Since(start).Seconds() / float64(n)
	}
	return batches, nil
}

// setupOnce sets every check up once.
func setupOnce(checks []Check) error {
	for _, c := range checks {
		p, opts, err := c.Build()
		if err != nil {
			return fmt.Errorf("%s: build: %w", c.ID, err)
		}
		opts.MaxStates = 1
		if _, err := mpbasset.Check(p, opts); err != nil {
			return fmt.Errorf("%s: set-up probe: %w", c.ID, err)
		}
	}
	return nil
}

var hostRefSink int

// RefNominal is what HostRef takes on the reference machine in its quiet
// state. Timings are reported scaled by RefNominal ÷ the run's own best
// HostRef, that is, in seconds of the quiet reference machine.
const RefNominal = 0.300

// HostRef runs a fixed loop of the kind of work the checker does — building
// string keys, inserting them into a map, probing it — and returns its wall
// time. It uses none of the checker's code, so it moves only when the host
// does: the reference VM has periods, minutes to tens of minutes long, in
// which everything memory-bound runs 40–60% slower (pure computation does
// not), and this loop slows by about as much as the workloads do.
func HostRef() float64 {
	const keys = 800000
	runtime.GC()
	start := time.Now()
	seen := make(map[string]struct{})
	buf := make([]byte, 0, 64)
	for i := 0; i < keys; i++ {
		buf = append(buf[:0], "p0:s"...)
		buf = strconv.AppendInt(buf, int64(i%977), 10)
		buf = append(buf, "|p1:b"...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		seen[string(buf)] = struct{}{}
	}
	for i := 0; i < keys; i++ {
		buf = append(buf[:0], "p0:s"...)
		buf = strconv.AppendInt(buf, int64(i%977), 10)
		buf = append(buf, "|p1:b"...)
		buf = strconv.AppendInt(buf, int64(2*i), 10)
		if _, ok := seen[string(buf)]; ok {
			hostRefSink++
		}
	}
	return time.Since(start).Seconds()
}
