package eval

import (
	"fmt"
	"io"
	"strings"
	"time"

	"mpbasset"
	"mpbasset/internal/core"
	"mpbasset/internal/explore"
	"mpbasset/internal/refine"
)

// Options configures a table run.
type Options struct {
	// Budget bounds each cell's wall-clock time (the analogue of the
	// paper's 48 h timeout); default 60 s.
	Budget time.Duration
	// MaxStates bounds each cell's state count; 0 = unlimited.
	MaxStates int
	// Paper selects the paper-scale workloads (larger settings where our
	// defaults are reduced); currently this enables the Echo Multicast
	// (3,1,1,1) row of Table II and doubles the Paxos ballots.
	Paper bool
	// StoreBudgetBytes > 0 runs the stateful cells over the facade's
	// two-tier spill store: the visited set's in-memory hot tier is bounded
	// by the budget and spills sorted fingerprint runs to disk. Cell
	// results (verdicts, state and event counts) are bit-identical to the
	// in-memory stores; only the cell's wall-clock changes. DPOR cells
	// keep no visited set and ignore it.
	StoreBudgetBytes int64
	// SpillDir is the spill store's run-file directory; empty means a
	// fresh temporary directory per cell, removed when the cell finishes.
	// Only meaningful with StoreBudgetBytes > 0.
	SpillDir string
	// Compress runs the stateful cells with collapse compression: a fresh
	// intern table per cell dedupes state components so stored keys shrink
	// to component IDs. Cell results (verdicts, state and event
	// counts) are bit-identical to uncompressed cells — the mapping is
	// injective — so only wall-clock changes. DPOR cells keep no visited
	// set and ignore it.
	Compress bool
	// Lossy runs the stateful cells over the explicitly lossy bitstate
	// store sized by BitstateBytes instead of an exact store. Lossy cells
	// are coverage claims: their state counts are a floor, and their
	// "Verified" verdicts only mean no violation was found among the states
	// visited. DPOR cells ignore it; the liveness cells cannot run on it
	// (cycle detection needs an exact visited set) and the facade rejects
	// them.
	Lossy bool
	// BitstateBytes sizes the lossy cells' bit array; 0 means the 64 MiB
	// default. Only accepted with Lossy.
	BitstateBytes int64
}

func (o Options) budget() time.Duration {
	if o.Budget > 0 {
		return o.Budget
	}
	return time.Minute
}

// Cell is one measurement of a table.
type Cell struct {
	Column   string
	Verdict  explore.Verdict
	States   int
	Events   int
	Duration time.Duration
	Note     string
	Err      error
	// stats is the search's full statistics, for notes derived from them.
	stats explore.Stats
}

// Row is one protocol/property line of a table.
type Row struct {
	Protocol string
	Setting  string
	Property string
	Cells    []Cell
}

// facade maps the table options onto mpbasset.Options for one stateful
// cell. Which of them combine is the facade's rule table's call: a cell
// whose options it rejects carries the rejection as its Err.
func (o Options) facade(search mpbasset.Search) mpbasset.Options {
	return mpbasset.Options{
		Search:           search,
		MaxStates:        o.MaxStates,
		MaxDuration:      o.budget(),
		StoreBudgetBytes: o.StoreBudgetBytes,
		SpillDir:         o.SpillDir,
		Compress:         o.Compress,
		Lossy:            o.Lossy,
		BitstateBytes:    o.BitstateBytes,
	}
}

// Validate reports the facade's rejection of o, if any, before a table
// spends time on it: every stateful cell is a DFS search (SPOR or
// unreduced), and liveness adds the property the liveness table's cells
// carry. The DPOR cells drop the store options, so options the DFS cells
// accept never fail there.
func (o Options) Validate(liveness bool) error {
	mo := o.facade(mpbasset.SearchSPOR)
	if liveness {
		mo.Property = new(mpbasset.Property)
	}
	return mo.Validate()
}

// run checks p under mo through the facade — the only place a store,
// canon, expander or engine is picked — and converts the result into a
// cell.
func run(column string, p *core.Protocol, mo mpbasset.Options) Cell {
	res, err := mpbasset.Check(p, mo)
	if err != nil {
		return Cell{Column: column, Err: err}
	}
	c := Cell{
		Column:   column,
		Verdict:  res.Verdict,
		States:   res.Stats.States,
		Events:   res.Stats.Events,
		Duration: res.Stats.Duration,
		stats:    res.Stats,
	}
	if res.Verdict == explore.VerdictLimit {
		c.Note = "timeout"
	}
	return c
}

// RunSPOR is the standard stateful DFS + static POR cell used across both
// tables.
func RunSPOR(column string, p *core.Protocol, opts Options) Cell {
	return run(column, p, opts.facade(mpbasset.SearchSPOR))
}

// RunDPOR is the stateless dynamic-POR cell (single-message models only).
// DPOR keeps no visited set, so the cell drops the store options instead
// of passing them to the facade, which would reject them.
func RunDPOR(column string, p *core.Protocol, opts Options) Cell {
	mo := opts.facade(mpbasset.SearchDPOR)
	mo.StoreBudgetBytes, mo.SpillDir = 0, ""
	mo.Compress, mo.Lossy, mo.BitstateBytes = false, false, 0
	return run(column, p, mo)
}

// RunUnreduced is the plain stateful cell.
func RunUnreduced(column string, p *core.Protocol, opts Options) Cell {
	return run(column, p, opts.facade(mpbasset.SearchUnreduced))
}

// runSplit runs SPOR over p refined by strat (Table II cells).
func runSplit(p *core.Protocol, strat refine.Strategy, opts Options) Cell {
	mo := opts.facade(mpbasset.SearchSPOR)
	mo.Split = strat
	return run(strat.String(), p, mo)
}

// FormatRows renders rows in the paper's table style.
func FormatRows(w io.Writer, title string, rows []Row) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	for _, r := range rows {
		fmt.Fprintf(w, "\n%s %s — %s\n", r.Protocol, r.Setting, r.Property)
		for _, c := range r.Cells {
			if c.Err != nil {
				fmt.Fprintf(w, "  %-22s ERROR: %v\n", c.Column, c.Err)
				continue
			}
			note := ""
			if c.Note != "" {
				note = " (" + c.Note + ")"
			}
			fmt.Fprintf(w, "  %-22s %-8s states=%-9d events=%-10d time=%s%s\n",
				c.Column, c.Verdict, c.States, c.Events, c.Duration.Round(time.Millisecond), note)
		}
	}
}
