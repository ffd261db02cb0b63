package dpor

import (
	"reflect"
	"sort"
	"testing"

	"mpbasset/internal/core"
	"mpbasset/internal/protocols/storage"
)

func TestJoin(t *testing.T) {
	dst := []int{1, 5, 0}
	join(dst, []int{3, 2, 0})
	if want := []int{3, 5, 0}; !reflect.DeepEqual(dst, want) {
		t.Fatalf("join = %v, want %v", dst, want)
	}
}

func TestHappensBefore(t *testing.T) {
	// Event by process 1 with clock [0,2,0]: anything that has seen its
	// second component (>= 2) is causally after it.
	clock := []int{0, 2, 0}
	if !happensBefore(clock, 1, []int{0, 2, 5}) {
		t.Error("observer with component 2 must be causally after")
	}
	if happensBefore(clock, 1, []int{9, 1, 9}) {
		t.Error("observer with component 1 must not be causally after")
	}
}

func TestSentKeysComputesBagDifference(t *testing.T) {
	p := mustStorageT(t)
	s, err := p.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	ev := p.Enabled(s)[0] // W_START: sends WRITE to every object
	ns, err := p.Execute(s, ev)
	if err != nil {
		t.Fatal(err)
	}
	keys := sentKeys(s, ns, ev)
	if len(keys) != 3 {
		t.Fatalf("sentKeys = %v, want 3 WRITE messages", keys)
	}
}

// TestSentKeysAscendingOnWalkedPath pins sentKeys' documented order along
// a walked path: every slice is ascending, element for element, because
// Bag.Each visits messages in key order — not merely the right set, as it
// was while the bag iterated in map order. The path must pass at least one
// broadcast, or the order is never exercised.
func TestSentKeysAscendingOnWalkedPath(t *testing.T) {
	p := mustStorageT(t)
	s, err := p.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	broadcasts := 0
	for depth := 0; depth < 12; depth++ {
		enabled := p.Enabled(s)
		if len(enabled) == 0 {
			break
		}
		for _, ev := range enabled {
			ns, err := p.Execute(s, ev)
			if err != nil {
				t.Fatal(err)
			}
			keys := sentKeys(s, ns, ev)
			if !sort.StringsAreSorted(keys) {
				t.Fatalf("depth %d: sent keys %v are not ascending", depth, keys)
			}
			if len(keys) > 1 {
				broadcasts++
			}
		}
		if s, err = p.Execute(s, enabled[0]); err != nil {
			t.Fatal(err)
		}
	}
	if broadcasts == 0 {
		t.Fatal("no event on the walked path sent two messages; the order was never exercised")
	}
}

func mustStorageT(t *testing.T) *core.Protocol {
	t.Helper()
	p, err := storage.New(storage.Config{Objects: 3, Readers: 1, Model: storage.ModelSingle, Writes: 1})
	if err != nil {
		t.Fatal(err)
	}
	return p
}
