//go:build long

package dpor_test

import (
	"testing"

	"mpbasset/internal/core"
	"mpbasset/internal/dpor"
)

// TestParallelDPOROnBundledSingleModelsFullSize is the bundled sweep at
// full size: the (3,1) storage model runs to exhaustion with sleep sets and
// to the 300k-state cap without. Run by `make test-long`.
func TestParallelDPOROnBundledSingleModelsFullSize(t *testing.T) {
	px, mc, st := bundledSingleModels(t, 3)
	for _, p := range []*core.Protocol{px, mc, st} {
		assertBitIdentical(t, p, dpor.Config{SleepSets: true}, 300000)
		assertBitIdentical(t, p, dpor.Config{}, 300000)
	}
}
