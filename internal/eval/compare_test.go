package eval

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"mpbasset/internal/explore"
)

// TestWriteJSONShapes is the table-driven output-shape test of mpbench's
// -json emission: every shape a table run can produce (multi-cell rows,
// empty tables, error and timeout cells) must serialize into the documented
// structure and round-trip through the Report reader.
func TestWriteJSONShapes(t *testing.T) {
	cases := []struct {
		name      string
		title     string
		rows      []Row
		wantRows  int
		wantCells []int // per row
	}{
		{"empty table", "Empty", nil, 0, nil},
		{"single cell", "One", []Row{
			{Protocol: "P", Setting: "(1)", Property: "safe", Cells: []Cell{
				{Column: "spor", Verdict: explore.VerdictVerified, States: 10, Events: 20, Duration: time.Second},
			}},
		}, 1, []int{1}},
		{"mixed outcomes", "Mixed", []Row{
			{Protocol: "P", Setting: "(2)", Property: "safe", Cells: []Cell{
				{Column: "spor", Verdict: explore.VerdictVerified, States: 5, Events: 9},
				{Column: "unreduced", Verdict: explore.VerdictLimit, States: 100, Events: 300, Note: "timeout"},
				{Column: "dpor", Err: errDemo("exploded")},
			}},
			{Protocol: "Q", Setting: "(3)", Property: "wrong", Cells: []Cell{
				{Column: "spor", Verdict: explore.VerdictViolated, States: 4, Events: 6},
			}},
		}, 2, []int{3, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteJSON(&buf, tc.title, tc.rows); err != nil {
				t.Fatal(err)
			}
			var tbl TableJSON
			if err := json.Unmarshal(buf.Bytes(), &tbl); err != nil {
				t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
			}
			if tbl.Title != tc.title || len(tbl.Rows) != tc.wantRows {
				t.Fatalf("structure wrong: %+v", tbl)
			}
			for i, want := range tc.wantCells {
				if len(tbl.Rows[i].Cells) != want {
					t.Errorf("row %d: %d cells, want %d", i, len(tbl.Rows[i].Cells), want)
				}
			}
			// The same table must round-trip through the report layer.
			report := Report{Tables: []TableJSON{TableToJSON(tc.title, tc.rows)}}
			var rb bytes.Buffer
			if err := WriteReport(&rb, report); err != nil {
				t.Fatal(err)
			}
			back, err := ReadReport(&rb)
			if err != nil {
				t.Fatal(err)
			}
			if len(back.Tables) != 1 || back.Tables[0].Title != tc.title || len(back.Tables[0].Rows) != tc.wantRows {
				t.Errorf("report round-trip lost structure: %+v", back)
			}
		})
	}
}

type errDemo string

func (e errDemo) Error() string { return string(e) }

func TestReportFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/bench.json"
	r := Report{Tables: []TableJSON{{Title: "T", Rows: []RowJSON{{Protocol: "P", Cells: []CellJSON{{Column: "c", Verdict: "Verified", States: 1}}}}}}}
	if err := WriteReportFile(path, r); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Tables) != 1 || back.Tables[0].Rows[0].Cells[0].States != 1 {
		t.Fatalf("round-trip lost data: %+v", back)
	}
	if _, err := ReadReportFile(t.TempDir() + "/missing.json"); err == nil {
		t.Error("missing baseline read succeeded")
	}
}

// benchCell builds a healthy baseline cell for the gate tests.
func benchCell(column string, states int, ms float64) CellJSON {
	return CellJSON{Column: column, Verdict: "Verified", States: states, Events: states * 3, DurationMS: ms}
}

func benchReport(cells ...CellJSON) Report {
	return Report{Tables: []TableJSON{{
		Title: "Table I",
		Rows:  []RowJSON{{Protocol: "Paxos", Setting: "(2,3,1)", Property: "agreement", Cells: cells}},
	}}}
}

// TestCompareReportsGate exercises the CI regression gate cell by cell:
// wall-clock is never gated, determinism drift (verdict or state counts)
// fails, vanished cells fail, and the limited-verdict carve-out holds.
func TestCompareReportsGate(t *testing.T) {
	base := benchReport(benchCell("spor", 1000, 1000))
	cases := []struct {
		name     string
		baseline Report
		current  Report
		wantKind string // "" means no regression
		wantSub  string
	}{
		{"identical", base, benchReport(benchCell("spor", 1000, 1000)), "", ""},
		{"wall-clock is not gated", base, benchReport(benchCell("spor", 1000, 5000)), "", ""},
		{"states drift", base, benchReport(benchCell("spor", 999, 1000)), "determinism", "states=999"},
		{"verdict drift", base, Report{Tables: []TableJSON{{Title: "Table I", Rows: []RowJSON{{
			Protocol: "Paxos", Setting: "(2,3,1)", Property: "agreement",
			Cells: []CellJSON{{Column: "spor", Verdict: "CE", States: 1000, Events: 3000, DurationMS: 1000}},
		}}}}}, "determinism", "verdict CE"},
		{"cell errored", base, benchReport(CellJSON{Column: "spor", Error: "boom"}), "error", "boom"},
		{"cell missing", base, benchReport(benchCell("unreduced", 1000, 1000)), "missing", "cell absent"},
		{"row missing", base, Report{Tables: []TableJSON{{Title: "Table I"}}}, "missing", "row absent"},
		{"table missing", base, Report{}, "missing", "table absent"},
		{"limited cells compare verdict only", benchReport(CellJSON{Column: "spor", Verdict: "Limit", States: 5000, Events: 9000, DurationMS: 1000, Note: "timeout"}),
			benchReport(CellJSON{Column: "spor", Verdict: "Limit", States: 4800, Events: 8500, DurationMS: 1100, Note: "timeout"}), "", ""},
		{"broken baseline gates nothing", benchReport(CellJSON{Column: "spor", Error: "was broken"}),
			benchReport(benchCell("spor", 1, 1)), "", ""},
		{"new cells are not regressions", base,
			benchReport(benchCell("spor", 1000, 1000), benchCell("unreduced", 2000, 900)), "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			regs := CompareReports(tc.baseline, tc.current)
			if tc.wantKind == "" {
				if len(regs) != 0 {
					t.Fatalf("unexpected regressions: %v", regs)
				}
				return
			}
			if len(regs) != 1 {
				t.Fatalf("regressions %v, want exactly one %q", regs, tc.wantKind)
			}
			if regs[0].Kind != tc.wantKind || !strings.Contains(regs[0].String(), tc.wantSub) {
				t.Errorf("regression %v, want kind %q containing %q", regs[0], tc.wantKind, tc.wantSub)
			}
		})
	}
}

// TestCompareReportsEndToEnd runs the gate over two real (tiny) table
// runs: a run against its own report must pass, and a doctored baseline
// (drifted state counts) must fail with the right kind — the shape of the CI wiring.
func TestCompareReportsEndToEnd(t *testing.T) {
	rows, err := Table1(Options{Budget: 30 * time.Second, MaxStates: 500})
	if err != nil {
		t.Fatal(err)
	}
	report := Report{Tables: []TableJSON{TableToJSON("Table I", rows)}}
	if regs := CompareReports(report, report); len(regs) != 0 {
		t.Fatalf("self-comparison regressed: %v", regs)
	}
	// Doctor a baseline with drifted state counts on a non-limited cell:
	// the gate must flag determinism, not noise.
	doctored, err := ReadReport(bytes.NewReader(mustJSON(t, report)))
	if err != nil {
		t.Fatal(err)
	}
	flagged := false
	for ti := range doctored.Tables {
		for ri := range doctored.Tables[ti].Rows {
			for ci := range doctored.Tables[ti].Rows[ri].Cells {
				c := &doctored.Tables[ti].Rows[ri].Cells[ci]
				if c.Error == "" && c.Verdict != "Limit" {
					c.States++
					flagged = true
				}
			}
		}
	}
	if !flagged {
		t.Skip("every cell hit the state cap; nothing to doctor")
	}
	regs := CompareReports(doctored, report)
	if len(regs) == 0 {
		t.Fatal("state-count drift passed the gate")
	}
	for _, r := range regs {
		if r.Kind != "determinism" {
			t.Errorf("unexpected regression kind %q: %v", r.Kind, r)
		}
	}
}

func mustJSON(t *testing.T, r Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteReport(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
