package eval

import (
	"strings"
	"testing"
	"time"

	"mpbasset/internal/explore"
	"mpbasset/internal/protocols/multicast"
	"mpbasset/internal/protocols/paxos"
)

func TestTable1VerdictsMatchPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("table generation is slow")
	}
	// The state cap makes the cells that cannot finish (Paxos(2,3,1) under
	// DPOR) stop at fixed work instead of at the wall budget. It sits above
	// the largest cell that reaches a verdict, Echo Multicast (3,0,1,1)
	// DPOR at 403 336 states, so every such cell still does; Verify skips
	// Limit cells, so a lower cap would check less.
	rows, err := Table1(Options{Budget: 5 * time.Second, MaxStates: 500000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("Table I rows = %d, want 7 (as in the paper)", len(rows))
	}
	if err := Verify(rows); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.Cells) != 3 {
			t.Fatalf("%s %s: %d cells, want 3 columns", r.Protocol, r.Setting, len(r.Cells))
		}
	}
	// The headline claim: the quorum model explores fewer states than the
	// single-message model under the same reduction, on every exhaustive
	// verification row.
	for _, r := range rows {
		spor, quorum := r.Cells[1], r.Cells[2]
		if spor.Verdict != explore.VerdictVerified || quorum.Verdict != explore.VerdictVerified {
			continue
		}
		if quorum.States >= spor.States {
			t.Errorf("%s %s: quorum states %d not below single-message states %d",
				r.Protocol, r.Setting, quorum.States, spor.States)
		}
	}
}

func TestTable2VerdictsAndShape(t *testing.T) {
	if testing.Short() {
		t.Skip("table generation is slow")
	}
	rows, err := Table2(Options{Budget: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("Table II rows = %d, want 7 (8th row is paper-scale only)", len(rows))
	}
	if err := Verify(rows); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.Cells) != 4 {
			t.Fatalf("%s %s: %d cells, want 4 split columns", r.Protocol, r.Setting, len(r.Cells))
		}
		// Splits never enlarge the explored space on exhaustive rows
		// (same state graph, finer reduction).
		unsplit := r.Cells[0]
		if unsplit.Verdict != explore.VerdictVerified {
			continue
		}
		for _, c := range r.Cells[1:] {
			if c.States > unsplit.States {
				t.Errorf("%s %s [%s]: %d states above unsplit %d",
					r.Protocol, r.Setting, c.Column, c.States, unsplit.States)
			}
		}
	}
}

// TestCellsUnderMemoryBudget pins the eval layer's spill plumbing: a SPOR
// cell and an unreduced cell run under a tiny memory budget must report
// the same verdict, state and event counts as their in-memory runs, and
// the per-cell spill store must not leak into the next cell (each run
// closes its own).
func TestCellsUnderMemoryBudget(t *testing.T) {
	p, err := paxos.New(paxos.Config{Proposers: 1, Acceptors: 3, Learners: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Budget: time.Minute}
	budgeted := base
	budgeted.StoreBudgetBytes = 2048
	budgeted.SpillDir = t.TempDir()
	for _, cell := range []struct {
		name string
		run  func(Options) Cell
	}{
		{"spor", func(o Options) Cell { return RunSPOR("spor", p, o) }},
		{"unreduced", func(o Options) Cell { return RunUnreduced("unreduced", p, o) }},
	} {
		ref := cell.run(base)
		got := cell.run(budgeted)
		if ref.Err != nil || got.Err != nil {
			t.Fatalf("%s: errors %v / %v", cell.name, ref.Err, got.Err)
		}
		if got.Verdict != ref.Verdict || got.States != ref.States || got.Events != ref.Events {
			t.Errorf("%s: budgeted cell %s states=%d events=%d, in-memory %s states=%d events=%d",
				cell.name, got.Verdict, got.States, got.Events, ref.Verdict, ref.States, ref.Events)
		}
	}
}

func TestAnalysisNumbers(t *testing.T) {
	if got := InterleavingBound(3).Int64(); got != 18 { // 3!·3
		t.Errorf("InterleavingBound(3) = %d, want 18", got)
	}
	if got := InterleavingBound(0).Int64(); got != 1 {
		t.Errorf("InterleavingBound(0) = %d, want 1", got)
	}
	if got := SingleMessagePenalty(11, 2).Int64(); got != 169 {
		t.Errorf("SingleMessagePenalty(11,2) = %d, want 169 (the paper's example)", got)
	}
	_, _, penalty := SmallestPaxosExample()
	if penalty.Int64() != 169 {
		t.Errorf("SmallestPaxosExample penalty = %s, want 169", penalty)
	}
	subsets, singles := PowersetCost(3)
	if subsets != 8 || singles != 3 {
		t.Errorf("PowersetCost(3) = %d,%d, want 8,3 (the paper's §IV-A example)", subsets, singles)
	}
	var sb strings.Builder
	PrintAnalysis(&sb)
	if !strings.Contains(sb.String(), "169") {
		t.Error("analysis output misses the paper's example number")
	}
}

func TestFormatRows(t *testing.T) {
	rows := []Row{{
		Protocol: "Demo",
		Setting:  "(1,1)",
		Property: "P",
		Cells: []Cell{
			{Column: "a", Verdict: explore.VerdictVerified, States: 42, Duration: time.Second},
			{Column: "b", Verdict: explore.VerdictLimit, States: 7, Note: "timeout"},
		},
	}}
	var sb strings.Builder
	FormatRows(&sb, "T", rows)
	out := sb.String()
	for _, want := range []string{"Demo", "states=42", "timeout", "Verified"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table misses %q:\n%s", want, out)
		}
	}
}

// TestLivenessTableVerdictsAndShape pins the liveness table: every bundled
// instance satisfies its eventuality property (so Verify's default
// expectation holds on all nine cells), the SPOR cell never explores more
// than the unreduced product, and the weakly fair cell pays the Choueka
// monitor copies — at least the unrestricted product, explored on the full
// graph.
func TestLivenessTableVerdictsAndShape(t *testing.T) {
	if testing.Short() {
		t.Skip("table generation is slow")
	}
	rows, err := LivenessTable(Options{Budget: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("liveness rows = %d, want 3", len(rows))
	}
	if err := Verify(rows); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.Cells) != 3 {
			t.Fatalf("%s %s: %d cells, want 3 columns", r.Protocol, r.Setting, len(r.Cells))
		}
		unreduced, spor, fair := r.Cells[0], r.Cells[1], r.Cells[2]
		if spor.States > unreduced.States {
			t.Errorf("%s %s: SPOR states %d above unreduced %d",
				r.Protocol, r.Setting, spor.States, unreduced.States)
		}
		if fair.States < unreduced.States {
			t.Errorf("%s %s: weakly fair states %d below unreduced %d (monitor copies should not shrink the product)",
				r.Protocol, r.Setting, fair.States, unreduced.States)
		}
	}
}

// TestLivenessCellsSpilled pins RunNDFS's store plumbing on one small
// model: the spill-backed cell reproduces the in-memory cell's verdict and
// counts bit-identically, for both reduction modes.
func TestLivenessCellsSpilled(t *testing.T) {
	cfg := multicast.Config{HonestReceivers: 2, HonestInitiators: 1, ByzantineReceivers: 0, ByzantineInitiators: 1}
	for _, reduced := range []bool{false, true} {
		p, err := multicast.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := RunNDFS("ref", p, multicast.Delivers(cfg), reduced, Options{Budget: time.Minute})
		if ref.Err != nil {
			t.Fatalf("reduced=%v: %v", reduced, ref.Err)
		}
		p, err = multicast.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := RunNDFS("spill", p, multicast.Delivers(cfg), reduced, Options{Budget: time.Minute, StoreBudgetBytes: 1 << 10, SpillDir: t.TempDir()})
		if c.Err != nil {
			t.Fatalf("reduced=%v: %v", reduced, c.Err)
		}
		if c.Verdict != ref.Verdict || c.States != ref.States || c.Events != ref.Events {
			t.Errorf("reduced=%v: spilled %s states=%d events=%d, in-memory %s states=%d events=%d",
				reduced, c.Verdict, c.States, c.Events, ref.Verdict, ref.States, ref.Events)
		}
	}
}

// TestLivenessTableRejectsLossy pins the mpbench -lossy bugfix: nested DFS
// needs an exact visited set, so a lossy liveness table carries the
// facade's rejection in every cell and never a verdict (the cells used to
// run NDFS over a bitstate store and report one).
func TestLivenessTableRejectsLossy(t *testing.T) {
	const want = "Lossy (-lossy) is incompatible with Property (-property)"
	opts := Options{Budget: time.Minute, Lossy: true}
	if err := opts.Validate(true); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Validate(liveness) = %v, want %q", err, want)
	}
	if err := opts.Validate(false); err != nil {
		t.Errorf("lossy safety tables rejected: %v", err)
	}
	rows, err := LivenessTable(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for _, c := range r.Cells {
			if c.Err == nil || !strings.Contains(c.Err.Error(), want) {
				t.Errorf("%s [%s]: verdict %s, err %v; want the rejection %q", r.Protocol, c.Column, c.Verdict, c.Err, want)
			}
		}
	}
	if Verify(rows) == nil {
		t.Error("Verify accepted a table of rejected cells")
	}
}

// TestStoreOptionsPerCell pins which cells the store options reach: DPOR
// cells keep no visited set and drop them (documented on Options), the
// store-tier table picks its own tier per cell and drops everything but
// the limits, and a tuning knob that cannot apply is an error cell rather
// than silently ignored.
func TestStoreOptionsPerCell(t *testing.T) {
	single, err := paxos.New(paxos.Config{Proposers: 1, Acceptors: 3, Learners: 1, Model: paxos.ModelSingle})
	if err != nil {
		t.Fatal(err)
	}
	ref := RunDPOR("dpor", single, Options{Budget: time.Minute})
	for _, opts := range []Options{
		{Budget: time.Minute, Compress: true},
		{Budget: time.Minute, Lossy: true, BitstateBytes: 1 << 10},
		{Budget: time.Minute, StoreBudgetBytes: 2048, SpillDir: t.TempDir()},
	} {
		c := RunDPOR("dpor", single, opts)
		if c.Err != nil || c.Verdict != ref.Verdict || c.States != ref.States || c.Events != ref.Events {
			t.Errorf("DPOR cell under %+v: %s states=%d events=%d err=%v, want %s states=%d events=%d",
				opts, c.Verdict, c.States, c.Events, c.Err, ref.Verdict, ref.States, ref.Events)
		}
	}
	if c := RunSPOR("spor", single, Options{Budget: time.Minute, BitstateBytes: 1 << 10}); c.Err == nil ||
		!strings.Contains(c.Err.Error(), "BitstateBytes (-bitstate-bytes) requires Lossy (-lossy)") {
		t.Errorf("BitstateBytes without Lossy: err %v, want the facade's rejection", c.Err)
	}

	limits := Options{Budget: time.Minute, MaxStates: 300}
	plain, err := StoreTierTable(limits)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := StoreTierTable(Options{
		Budget: time.Minute, MaxStates: 300,
		Lossy: true, Compress: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for ri, r := range plain {
		for ci, c := range r.Cells {
			n := noisy[ri].Cells[ci]
			if c.Err != nil || n.Err != nil || c.Verdict != n.Verdict || c.States != n.States || c.Events != n.Events {
				t.Errorf("%s [%s]: %s states=%d err=%v with limits only, %s states=%d err=%v with every option set",
					r.Protocol, c.Column, c.Verdict, c.States, c.Err, n.Verdict, n.States, n.Err)
			}
		}
	}
}
