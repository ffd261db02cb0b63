// The cross-run perf trajectory: mpbench serializes every table of one
// invocation into a Report (BENCH_ci.json in CI, BENCH_baseline.json
// committed to the repo) and CompareReports gates a current report against
// a baseline on determinism: verdict or state-count drift on cells the
// engines guarantee to be bit-identical run-to-run fails. Wall-clock is
// recorded in the reports but not gated — single-sample cell timings spread
// 13–48 % on identical code; bench/ is the ruler for speed.

package eval

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"

	"mpbasset/internal/explore"
)

// Report is the machine-readable outcome of one mpbench invocation: every
// table it ran, in emission order.
type Report struct {
	Tables []TableJSON `json:"tables"`
}

// WriteReport serializes r as indented JSON.
func WriteReport(w io.Writer, r Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteReportFile writes r to path, creating or truncating it.
func WriteReportFile(path string, r Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteReport(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadReport parses a report previously written by WriteReport.
func ReadReport(rd io.Reader) (Report, error) {
	var r Report
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&r); err != nil {
		return Report{}, fmt.Errorf("bench report: %w", err)
	}
	return r, nil
}

// ReadReportFile reads a report from path.
func ReadReportFile(path string) (Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return Report{}, err
	}
	//lint:closeerr-ok read-only descriptor: a close failure cannot lose data, and decode errors already surface through ReadReport
	defer f.Close()
	return ReadReport(f)
}

// DeterministicStatsFields lists the explore.Stats fields covered by the
// engines' determinism guarantee: for a fixed protocol, options and
// reduction, every engine, worker count and store tier must
// report bit-identical values. The differential suites compare these
// fields directly; CompareReports gates the States/Events subset that
// mpbench serializes.
//
// Together with VolatileStatsFields this list must classify every field of
// explore.Stats exactly once — the statsmask analyzer (internal/lint)
// fails the build when a new Stats field is added without deciding which
// side of the contract it falls on.
var DeterministicStatsFields = []string{
	"States",
	"Revisits",
	"Events",
	"Deadlocks",
	"MaxDepth",
	"RedStates",
	"FullExpansions",
	"ReducedExpansions",
	"ProvisoExpansions",
}

// VolatileStatsFields lists the explore.Stats fields explicitly excluded
// from the determinism guarantee — wall-clock time, the spill tier's
// storage-effort counters, whose values depend on insert timing, and the
// lossy bitstate coverage figures, whose values depend on which colliding
// state reached the store first — and therefore masked before any
// cross-run or cross-engine comparison.
var VolatileStatsFields = []string{
	"Duration",
	"SpillRuns",
	"SpillBytes",
	"DiskProbes",
	"BitstateFill",
	"BitstateOmission",
}

// MaskVolatileStats zeroes the fields of st that VolatileStatsFields
// excludes from the determinism guarantee, leaving exactly the comparable
// counters. The differential and fuzz suites call it on both sides before
// comparing whole Stats values, so a newly added volatile field has a
// single place to be masked. It panics when a listed field does not exist
// on explore.Stats — the lists above are the source of truth and must
// track the struct (the statsmask analyzer enforces this statically too).
func MaskVolatileStats(st *explore.Stats) {
	v := reflect.ValueOf(st).Elem()
	for _, name := range VolatileStatsFields {
		f := v.FieldByName(name)
		if !f.IsValid() {
			panic(fmt.Sprintf("eval: VolatileStatsFields names unknown explore.Stats field %q", name))
		}
		f.SetZero()
	}
}

// StatsEqualModuloVolatile reports whether a and b agree on every field
// covered by the determinism guarantee, ignoring the volatile ones.
func StatsEqualModuloVolatile(a, b explore.Stats) bool {
	MaskVolatileStats(&a)
	MaskVolatileStats(&b)
	return a == b
}

// Regression is one gate violation found by CompareReports.
type Regression struct {
	Table  string
	Row    string
	Column string
	// Kind classifies the violation: "determinism" (verdict or state/event
	// drift), "error" (the current cell failed), or "missing" (a baseline
	// cell the current report no longer has).
	Kind   string
	Detail string
}

func (r Regression) String() string {
	return fmt.Sprintf("%s / %s [%s]: %s: %s", r.Table, r.Row, r.Column, r.Kind, r.Detail)
}

// CompareReports gates current against baseline cell by cell (tables
// matched by title, rows by protocol/setting/property, cells by column)
// and returns every regression found, in baseline order:
//
//   - a baseline cell absent from the current report is "missing";
//   - a current cell that errored is "error";
//   - a verdict change is "determinism", and so is state- or event-count
//     drift on cells neither side cut short (a Limit verdict can come from
//     a wall-clock budget, whose cut point is timing-dependent, so limited
//     cells are only held to verdict agreement).
//
// Cells present only in the current report are new coverage, not
// regressions.
func CompareReports(baseline, current Report) []Regression {
	curTables := make(map[string]TableJSON, len(current.Tables))
	for _, t := range current.Tables {
		curTables[t.Title] = t
	}
	var regs []Regression
	for _, bt := range baseline.Tables {
		ct, ok := curTables[bt.Title]
		if !ok {
			regs = append(regs, Regression{Table: bt.Title, Kind: "missing", Detail: "table absent from the current report"})
			continue
		}
		curRows := make(map[string]RowJSON, len(ct.Rows))
		for _, r := range ct.Rows {
			curRows[r.Protocol+"|"+r.Setting+"|"+r.Property] = r
		}
		for _, br := range bt.Rows {
			rowName := fmt.Sprintf("%s %s — %s", br.Protocol, br.Setting, br.Property)
			cr, ok := curRows[br.Protocol+"|"+br.Setting+"|"+br.Property]
			if !ok {
				regs = append(regs, Regression{Table: bt.Title, Row: rowName, Kind: "missing", Detail: "row absent from the current report"})
				continue
			}
			curCells := make(map[string]CellJSON, len(cr.Cells))
			for _, c := range cr.Cells {
				curCells[c.Column] = c
			}
			for _, bc := range br.Cells {
				cc, ok := curCells[bc.Column]
				if !ok {
					regs = append(regs, Regression{Table: bt.Title, Row: rowName, Column: bc.Column, Kind: "missing", Detail: "cell absent from the current report"})
					continue
				}
				regs = append(regs, compareCell(bt.Title, rowName, bc, cc)...)
			}
		}
	}
	return regs
}

func compareCell(table, row string, base, cur CellJSON) []Regression {
	if base.Error != "" {
		return nil // a broken baseline cell gates nothing
	}
	if cur.Error != "" {
		return []Regression{{Table: table, Row: row, Column: cur.Column, Kind: "error", Detail: cur.Error}}
	}
	var regs []Regression
	if cur.Verdict != base.Verdict {
		regs = append(regs, Regression{
			Table: table, Row: row, Column: cur.Column, Kind: "determinism",
			Detail: fmt.Sprintf("verdict %s, baseline %s", cur.Verdict, base.Verdict),
		})
		return regs // state counts are incomparable across verdicts
	}
	if base.Verdict != "Limit" && (cur.States != base.States || cur.Events != base.Events) {
		regs = append(regs, Regression{
			Table: table, Row: row, Column: cur.Column, Kind: "determinism",
			Detail: fmt.Sprintf("states=%d events=%d, baseline states=%d events=%d", cur.States, cur.Events, base.States, base.Events),
		})
	}
	return regs
}
