// Package liveness defines Büchi-style liveness properties over protocol
// states and the machinery the checkers share: the weak-fairness monitor
// (a deterministic "copies" automaton in the style of Choueka's flag
// construction, as used by Spin's weak-fairness mode), the product-state
// key encoding, and a slow-but-obviously-correct reference oracle
// (explicit Büchi-product BFS plus Tarjan SCC cycle detection) that the
// nested-DFS engines of package explore are differentially tested against.
//
// A property is an acceptance predicate over states: a counterexample is a
// reachable lasso — a finite stem followed by a cycle — whose cycle passes
// through an accepting state (and, when WeakFair is set, is weakly fair:
// every process continuously enabled along the cycle executes on it).
// Deadlocked states are given an implicit stutter self-loop, so finite
// maximal runs count as lassos too: a run that halts in an accepting state
// violates the property, which is how "some value is eventually decided"
// catches executions that get stuck undecided.
//
// The paper's target properties for fault-tolerant protocols ("some value
// is eventually decided", "every request is eventually answered") are of
// the form eventually-goal; Eventually builds them by negation: the
// accepting predicate marks states where the goal has not been reached
// yet, so an accepting cycle is exactly an execution that defers the goal
// forever.
//
// The package is under the determinism contract: monitors and key
// encodings are pure functions of the state, so NDFS reports bit-identical
// lassos over every store tier. In the store matrix,
// liveness runs demand exact visited sets on both the blue and red
// searches — the facade rejects the lossy bitstate tier for properties,
// since a hash collision could hide the accepting cycle itself.
package liveness
