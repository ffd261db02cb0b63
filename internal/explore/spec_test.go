package explore

import (
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// Tests of the speculation kernel on its own, with toy engines: what the
// queue, the memo and the steal loop promise whichever search drives them.
// That the searches stay bit-identical on top of it is the differential
// suites' job.

// waitFor polls cond until it holds; the kernel exposes no event for
// "a speculator went idle", so the tests watch its counters instead.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// treeNode is a node of the toy engine's infinite tree, named by its path
// from a steal target: the children of p are pa, pb, … one level deeper.
type treeNode struct {
	path  string
	depth int
}

// treeEngine expands the infinite fanout-ary tree, counting builds.
type treeEngine struct {
	fanout   int
	mu       sync.Mutex
	builds   int
	maxDepth int
	onBuild  func() // called outside mu
}

func (e *treeEngine) built() (builds, maxDepth int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.builds, e.maxDepth
}

func (e *treeEngine) engine() SpecEngine[treeNode, treeNode] {
	return SpecEngine[treeNode, treeNode]{
		Key: func(n treeNode) string { return n.path },
		Build: func(n treeNode) (*treeNode, []treeNode) {
			e.mu.Lock()
			e.builds++
			e.maxDepth = max(e.maxDepth, n.depth)
			e.mu.Unlock()
			if e.onBuild != nil {
				e.onBuild()
			}
			kids := make([]treeNode, e.fanout)
			for i := range kids {
				kids[i] = treeNode{path: n.path + string(rune('a'+i)), depth: n.depth + 1}
			}
			return &n, kids
		},
	}
}

func TestSpecQueuePopsDeepEndFirstAndOverflowDropsShallowest(t *testing.T) {
	q := newSpecQueue[int]()
	q.publish([]int{1, 2, 3})
	q.publish([]int{4, 5})
	for _, want := range []int{4, 5, 1, 2, 3} {
		if got, ok := q.pop(); !ok || got != want {
			t.Fatalf("pop = %d, %v; want %d (latest batch first, each batch in the order given)", got, ok, want)
		}
	}

	// Overfill by three batches' worth: the oldest entries go, the rest
	// keep their order.
	const batch = 64
	total := pdQueueCap + 3*batch
	for lo := 0; lo < total; lo += batch {
		ts := make([]int, batch)
		for i := range ts {
			ts[i] = lo + i
		}
		q.publish(ts)
	}
	if len(q.items) != pdQueueCap {
		t.Fatalf("queue holds %d targets, cap is %d", len(q.items), pdQueueCap)
	}
	for lo := total - batch; lo >= total-pdQueueCap; lo -= batch {
		for i := 0; i < batch; i++ {
			if got, ok := q.pop(); !ok || got != lo+i {
				t.Fatalf("pop = %d, %v; want %d", got, ok, lo+i)
			}
		}
	}
	if len(q.items) != 0 {
		t.Fatalf("%d targets left: the shallowest %d should have been dropped", len(q.items), 3*batch)
	}
}

func TestSpecQueueCloseUnblocksPopsAndStopsPublish(t *testing.T) {
	q := newSpecQueue[int]()
	var wg sync.WaitGroup
	results := make([]bool, 4)
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, results[i] = q.pop()
		}()
	}
	q.close()
	wg.Wait() // hangs, and trips the test timeout, if close left a pop blocked
	for i, ok := range results {
		if ok {
			t.Errorf("pop %d returned a target from an empty, closed queue", i)
		}
	}
	q.publish([]int{7})
	if got, ok := q.pop(); ok {
		t.Errorf("pop after close = %d: publish on a closed queue must be a no-op", got)
	}
}

func TestSpecMemoDuplicatePutKeepsFirst(t *testing.T) {
	var m specMemo[int]
	first, second := 1, 2
	if !m.put("k", &first) {
		t.Fatal("first put was refused")
	}
	if m.put("k", &second) {
		t.Fatal("second put under the same key was accepted")
	}
	if !m.has("k") {
		t.Fatal("has(k) = false after put")
	}
	if got := m.take("k"); got != &first {
		t.Fatalf("take returned %v, want the first record", got)
	}
	if m.take("k") != nil || m.has("k") || m.count.Load() != 0 {
		t.Fatal("take did not remove the record")
	}
}

func TestSpecFullMemoBacksThievesOffAndTakeReopensIt(t *testing.T) {
	const workers = 2
	eng := &treeEngine{fanout: 2}
	s := Speculate(Options{Workers: workers, StealDepth: 1 << 20}, eng.engine())
	var stats Stats
	defer s.Close(&stats)
	builds := func() int { n, _ := eng.built(); return n }

	// Keep feeding fresh subtrees until the table fills up.
	targets := 0
	publish := func() {
		s.Publish(treeNode{path: "t" + strconv.Itoa(targets) + "/"})
		targets++
	}
	waitFor(t, "the memo to fill", func() bool {
		publish()
		return s.memo.full()
	})
	// put re-checks full() before inserting, so at most one racing insert
	// per speculator can land above the cap.
	if n := s.memo.count.Load(); n >= pdMemoCap+workers {
		t.Fatalf("memo holds %d records, cap is %d", n, pdMemoCap)
	}

	// Full: new targets are dropped unexpanded (a build already under way
	// when the table filled may still finish).
	waitFor(t, "the thieves to go idle", func() bool {
		before := builds()
		time.Sleep(5 * time.Millisecond)
		return builds() == before
	})
	idle := builds()
	for i := 0; i < 8; i++ {
		publish()
	}
	time.Sleep(20 * time.Millisecond)
	if got := builds(); got > idle+workers {
		t.Fatalf("thieves built %d records into a full memo", got-idle)
	}

	// The walk consuming records reopens the table.
	taken := 0
	for i := 0; i < targets; i++ {
		if s.Take("t"+strconv.Itoa(i)+"/") != nil {
			taken++
		}
	}
	if taken == 0 || s.memo.full() {
		t.Fatalf("took %d records, memo still full", taken)
	}
	reopened := builds()
	waitFor(t, "speculation to resume", func() bool {
		publish()
		return builds() > reopened
	})
	if s.hits != taken {
		t.Errorf("kernel counted %d hits, the walk took %d records", s.hits, taken)
	}
}

// oneSteal runs a single steal on one speculator and returns what it built
// once that steal is over: a second target, published after the first
// build began, is opened only when the worker comes back for it.
func oneSteal(t *testing.T, fanout, stealDepth int) (builds, maxDepth int) {
	t.Helper()
	var (
		eng     = &treeEngine{fanout: fanout}
		started = make(chan struct{})
		done    = make(chan struct{})
		once    sync.Once
	)
	eng.onBuild = func() { once.Do(func() { close(started) }) }
	e := eng.engine()
	e.Open = func(n treeNode) (treeNode, bool) {
		if n.path == "sentinel" {
			close(done)
			return n, false
		}
		return n, true
	}
	s := Speculate(Options{Workers: 1, StealDepth: stealDepth}, e)
	s.Publish(treeNode{path: "t/"})
	<-started
	s.Publish(treeNode{path: "sentinel"})
	<-done
	var stats Stats
	s.Close(&stats)
	builds, maxDepth = eng.built()
	if stats.SpeculatedVisits != builds {
		t.Errorf("Close reported %d speculated visits, the engine built %d records", stats.SpeculatedVisits, builds)
	}
	return builds, maxDepth
}

func TestSpecStealStaysWithinItsBudgets(t *testing.T) {
	// A binary tree far deeper than the state budget: the steal stops at
	// pdStealBudget records exactly.
	if builds, _ := oneSteal(t, 2, 1<<20); builds != pdStealBudget {
		t.Errorf("one steal built %d records, state budget is %d", builds, pdStealBudget)
	}
	// A chain cut by the depth budget: the root plus StealDepth levels.
	const depth = 5
	if builds, maxDepth := oneSteal(t, 1, depth); builds != depth+1 || maxDepth != depth {
		t.Errorf("one steal built %d records down to depth %d, depth budget is %d", builds, maxDepth, depth)
	}
	// Both at once: the 1+3+9 nodes within depth 2 fit the state budget.
	if builds, maxDepth := oneSteal(t, 3, 2); builds != 13 || maxDepth != 2 {
		t.Errorf("one steal built %d records down to depth %d, want the 13 nodes within depth 2", builds, maxDepth)
	}
}

func TestSpecCloseJoinsEveryWorker(t *testing.T) {
	before := runtime.NumGoroutine()
	eng := &treeEngine{fanout: 2}
	s := Speculate(Options{Workers: 8}, eng.engine())
	for i := 0; i < 32; i++ {
		s.Publish(treeNode{path: "t" + strconv.Itoa(i) + "/"})
	}
	var stats Stats
	s.Close(&stats)
	// Close waited for every worker's last statement; give the runtime a
	// moment to retire the goroutines themselves.
	waitFor(t, "the speculators to exit", func() bool { return runtime.NumGoroutine() <= before })
	built, _ := eng.built()
	s.Publish(treeNode{path: "late/"})
	time.Sleep(5 * time.Millisecond)
	if after, _ := eng.built(); after != built {
		t.Error("a speculator expanded a target published after Close")
	}
}

func TestNilSpeculationIsTheSequentialEngine(t *testing.T) {
	var s *Speculation[treeNode, treeNode]
	if s.Take("t/") != nil {
		t.Error("nil kernel returned a record")
	}
	s.Publish(treeNode{})
	stats := Stats{SpeculatedVisits: 3}
	s.Close(&stats)
	if stats.SpeculatedVisits != 3 {
		t.Error("nil kernel touched the stats")
	}
}
