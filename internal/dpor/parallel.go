package dpor

import (
	"mpbasset/internal/core"
	"mpbasset/internal/explore"
)

// ExploreParallel runs Explore: Options.Workers parallelizes only
// explore.ParallelBFS.
//
// Deprecated: call Explore. ExploreParallel stays only for
// bench/layers/traced.go and goes when ROADMAP item 0b moves that file onto
// the mpbasset facade.
func ExploreParallel(p *core.Protocol, opts explore.Options) (*explore.Result, error) {
	return Explore(p, opts)
}
