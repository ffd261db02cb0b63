//go:build long

package dpor

import (
	"testing"
	"time"

	"mpbasset/internal/explore"
	"mpbasset/internal/protocols/storage"
)

// The full-size versions of the bundled-model tests (see dpor_test.go):
// the (3,1) storage model under a one-minute wall-clock budget per run,
// about two and a half minutes in all. Run by `make test-long`.
var (
	fullStorage = storage.Config{Objects: 3, Readers: 1, Model: storage.ModelSingle, Writes: 1}
	fullSize    = explore.Options{MaxDuration: time.Minute}
)

func TestDPOROnBundledSingleModelsFullSize(t *testing.T) {
	compareBundledSingleModels(t, fullStorage, fullSize)
}

func TestDPORReducesWorkFullSize(t *testing.T) {
	dporReducesWork(t, newStorage(t, fullStorage), fullSize)
}

func TestSleepSetsReduceVisitsFullSize(t *testing.T) {
	sleepSetsReduceVisits(t, newStorage(t, fullStorage), fullSize)
}
