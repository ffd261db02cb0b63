// Package cli holds the testable core of the command-line tools: parsing
// protocol settings, search and split names and byte-size flags, and
// instantiating the bundled protocol models and liveness properties for
// cmd/mpcheck and cmd/mpbench.
//
// The package sits outside the determinism contract — it runs before any
// engine does — and it decides nothing about which flags combine: the
// tools map their flags onto mpbasset.Options and the facade's rule table
// (mpbasset.Options.Validate) accepts or refuses the combination, so an
// unsound one (DPOR with a visited store, a liveness property on a lossy
// bitstate store, symmetry canonicalization stacked on collapse
// compression) gets the same message through the Go API and a command
// line. See the store/engine matrix in package explore's doc for which
// combinations exist and why the excluded ones are excluded.
package cli
