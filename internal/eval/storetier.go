package eval

import (
	"fmt"

	"mpbasset"
	"mpbasset/internal/protocols/paxos"
	"mpbasset/internal/protocols/storage"
)

// hashEntryBytes is the approximate in-memory cost of one visited state in
// the exact-mode HashStore: a 16-byte fingerprint key plus Go map bucket
// and header overhead. The store-tier table uses it to translate a byte
// budget into the state cap an exact store could hold in the same memory a
// bitstate sweep gets as its bit array — the "equal memory" comparison the
// bitstate row makes.
const hashEntryBytes = 48

// storeTierBudget is the byte budget both cells of the bitstate row get:
// small enough that the exact store's equivalent state cap binds well
// before the table's MaxStates, large enough that the bitstate array stays
// far from saturation over the same space.
const storeTierBudget = 256 << 10

// StoreTierTable measures the raw-speed store tier: collapse compression
// against the exact stores it must match state-for-state, and the lossy
// bitstate store against an exact store capped at the same memory budget.
//
// Row one runs the regular-storage SPOR workload over the hash and exact
// stores with compression off and on — four cells whose verdicts, state
// and event counts must be identical (collapse is injective; only
// wall-clock may move), which the determinism gate in CompareReports then
// pins. Row two runs the Paxos SPOR workload twice at the same byte
// budget: an exact hash store allowed only the states that fit the budget
// (MaxStates = budget / hashEntryBytes), and a bitstate store whose bit
// array IS the budget — the lossy cell's higher state count is the
// coverage win the tier exists for. Both row-two cells end at a state
// limit, so the comparison gate checks their verdicts only; the bitstate
// cell's count is a coverage claim, not a census.
//
// The table always runs sequentially and picks its own store tier per
// cell, so of opts only Budget and MaxStates apply: which states a
// parallel run's bitstate store omits depends on visit order, and this
// table's numbers feed the committed baseline.
func StoreTierTable(opts Options) ([]Row, error) {
	opts = Options{Budget: opts.Budget, MaxStates: opts.MaxStates}

	sp, err := storage.New(storage.Config{Objects: 3, Readers: 1, Model: storage.ModelQuorum})
	if err != nil {
		return nil, err
	}
	compressRow := Row{Protocol: "Regular storage", Setting: "(3,1) quorum", Property: "Read regularity"}
	for _, tier := range []struct {
		column          string
		exact, compress bool
	}{
		{"SPOR hash", false, false},
		{"SPOR exact", true, false},
		{"SPOR collapse hash", false, true},
		{"SPOR collapse exact", true, true},
	} {
		mo := opts.facade(mpbasset.SearchSPOR)
		mo.ExactStates, mo.Compress = tier.exact, tier.compress
		compressRow.Cells = append(compressRow.Cells, run(tier.column, sp, mo))
	}

	px, err := paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1, Model: paxos.ModelQuorum})
	if err != nil {
		return nil, err
	}
	budgetStates := storeTierBudget / hashEntryBytes
	bitstateRow := Row{Protocol: "Paxos", Setting: "(2,3,1) quorum", Property: "Consensus"}

	capped := opts.facade(mpbasset.SearchSPOR)
	if capped.MaxStates == 0 || capped.MaxStates > budgetStates {
		capped.MaxStates = budgetStates
	}
	cell := run(fmt.Sprintf("SPOR exact @%dKiB", storeTierBudget>>10), px, capped)
	cell.Note = fmt.Sprintf("capped at %d states (%d B/state)", budgetStates, hashEntryBytes)
	bitstateRow.Cells = append(bitstateRow.Cells, cell)

	lossy := opts.facade(mpbasset.SearchSPOR)
	lossy.Lossy, lossy.BitstateBytes = true, storeTierBudget
	cell = run(fmt.Sprintf("SPOR bitstate @%dKiB", storeTierBudget>>10), px, lossy)
	cell.Note = fmt.Sprintf("lossy coverage: fill %.4f, omission ~%.1e", cell.stats.BitstateFill, cell.stats.BitstateOmission)
	bitstateRow.Cells = append(bitstateRow.Cells, cell)

	return []Row{compressRow, bitstateRow}, nil
}
