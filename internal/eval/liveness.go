package eval

import (
	"fmt"

	"mpbasset"
	"mpbasset/internal/core"
	"mpbasset/internal/liveness"
	"mpbasset/internal/protocols/multicast"
	"mpbasset/internal/protocols/paxos"
	"mpbasset/internal/protocols/storage"
)

// RunNDFS is the liveness cell: the facade instruments the protocol for
// prop (the property's visibility marks constrain the reduction, ample-set
// condition C2) and checks it by nested DFS — SPOR-reduced when reduced is
// true, full expansion otherwise. Under weak fairness the engines force full
// expansion regardless, so a reduced fair cell equals its unreduced twin.
// The spill-store budget applies exactly as in the safety cells; Lossy is
// rejected — nested DFS needs an exact visited set.
func RunNDFS(column string, p *core.Protocol, prop *liveness.Property, reduced bool, opts Options) Cell {
	search := mpbasset.SearchUnreduced
	if reduced {
		search = mpbasset.SearchSPOR
	}
	mo := opts.facade(search)
	mo.Property = prop
	return run(column, p, mo)
}

// livenessTarget is one protocol/liveness-property line of the liveness
// table. Every bundled instance satisfies its property, so the table's
// expected verdict column is uniformly Verified — counterexample coverage
// (accepting cycles, stutter lassos) lives in the test suites, which check
// crafted violating models against the Büchi-product oracle.
type livenessTarget struct {
	protocol string
	setting  string
	property string
	build    func() (*core.Protocol, *liveness.Property, error)
}

func livenessTargets() []livenessTarget {
	return []livenessTarget{
		{
			protocol: "Paxos", setting: "(2,3,1)", property: "Termination",
			build: func() (*core.Protocol, *liveness.Property, error) {
				cfg := paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1}
				p, err := paxos.New(cfg)
				return p, paxos.Decides(cfg), err
			},
		},
		{
			protocol: "Echo Multicast", setting: "(2,1,0,1)", property: "Delivery",
			build: func() (*core.Protocol, *liveness.Property, error) {
				cfg := multicast.Config{HonestReceivers: 2, HonestInitiators: 1, ByzantineReceivers: 0, ByzantineInitiators: 1}
				p, err := multicast.New(cfg)
				return p, multicast.Delivers(cfg), err
			},
		},
		{
			protocol: "Regular storage", setting: "(3,1)", property: "Read completion",
			build: func() (*core.Protocol, *liveness.Property, error) {
				cfg := storage.Config{Objects: 3, Readers: 1}
				p, err := storage.New(cfg)
				return p, storage.ReadsComplete(cfg), err
			},
		},
	}
}

// LivenessTable checks each bundled protocol's liveness property by nested
// DFS: the full product graph, the SPOR-reduced graph (sound for cycle
// detection via the stack ignoring proviso), and the full graph under weak
// fairness (the Choueka copies construction). Fairness only removes
// counterexamples, so with the unrestricted cells Verified the fair cells
// are too — the column pins the monitor-product cost and determinism.
func LivenessTable(opts Options) ([]Row, error) {
	var rows []Row
	for _, tg := range livenessTargets() {
		row := Row{Protocol: tg.protocol, Setting: tg.setting, Property: tg.property}
		for _, col := range []struct {
			name    string
			reduced bool
			fair    bool
		}{
			{"NDFS unreduced", false, false},
			{"NDFS SPOR", true, false},
			{"NDFS weakly fair", false, true},
		} {
			p, prop, err := tg.build()
			if err != nil {
				return nil, fmt.Errorf("liveness table %s %s: %w", tg.protocol, tg.setting, err)
			}
			prop.WeakFair = col.fair
			row.Cells = append(row.Cells, RunNDFS(col.name, p, prop, col.reduced, opts))
		}
		rows = append(rows, row)
	}
	return rows, nil
}
