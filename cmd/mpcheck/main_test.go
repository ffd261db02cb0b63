package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mpcheck runs the command in-process and returns its exit status, stdout
// and stderr.
func mpcheck(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

var timeLine = regexp.MustCompile(`(?m)^time: .*\n`)

func TestVerifiedRun(t *testing.T) {
	code, out, errOut := mpcheck("-protocol", "paxos", "-setting", "1,3,1", "-symmetry", "-workers", "2")
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	for _, want := range []string{
		"symmetry group: 6 permutations\n",
		"checking Paxos(1,3,1)",
		"[spor, unsplit]",
		"workers:   2 (DFS)\n",
		"verdict:   Verified\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
}

func TestViolatedRunRendersTrace(t *testing.T) {
	code, out, errOut := mpcheck("-protocol", "faulty-paxos", "-trace")
	if code != 2 || errOut != "" {
		t.Fatalf("exit %d, stderr %q; want exit 2", code, errOut)
	}
	for _, want := range []string{"verdict:   CE\n", "counterexample:\n", "=> violation: consensus violated"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
}

// TestCompressedTraceHasFullKeys: a -compress counterexample is rendered
// and written to -trace-dot with the states' full canonical keys, byte for
// byte what the uncompressed run produces.
func TestCompressedTraceHasFullKeys(t *testing.T) {
	dir := t.TempDir()
	plainDot, compDot := filepath.Join(dir, "plain.dot"), filepath.Join(dir, "compressed.dot")
	args := []string{"-protocol", "faulty-paxos", "-search", "bfs", "-trace", "-trace-dot"}
	code, plain, _ := mpcheck(append(args, plainDot)...)
	if code != 2 {
		t.Fatalf("plain run: exit %d, want 2", code)
	}
	code, comp, errOut := mpcheck(append(args, compDot, "-compress")...)
	if code != 2 || errOut != "" {
		t.Fatalf("compressed run: exit %d, stderr %q; want exit 2", code, errOut)
	}
	if !strings.Contains(comp, "compress:  collapse compression on") {
		t.Errorf("compressed run does not announce -compress:\n%s", comp)
	}
	normalize := func(s, dot string) string {
		s = timeLine.ReplaceAllString(s, "")
		s = strings.Replace(s, "compress:  collapse compression on (stored keys are interned component IDs)\n", "", 1)
		return strings.ReplaceAll(s, dot, "TRACE.dot")
	}
	if normalize(plain, plainDot) != normalize(comp, compDot) {
		t.Errorf("compressed transcript diverges from the plain one:\n%s\n--- plain ---\n%s", comp, plain)
	}
	want, err := os.ReadFile(plainDot)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(compDot)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || len(want) == 0 {
		t.Errorf("-trace-dot under -compress differs from the uncompressed file (%d vs %d bytes)", len(got), len(want))
	}
}

func TestMemBudgetLeavesNoRunFiles(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	spillDir := t.TempDir()
	for _, extra := range [][]string{nil, {"-spill-dir", spillDir}} {
		args := append([]string{"-protocol", "paxos", "-setting", "1,3,1", "-mem-budget", "1K"}, extra...)
		code, out, errOut := mpcheck(args...)
		if code != 0 || errOut != "" {
			t.Fatalf("%v: exit %d, stderr %q", args, code, errOut)
		}
		if !strings.Contains(out, "mem-budget: 1024 bytes") || !strings.Contains(out, "spill:     ") {
			t.Errorf("%v: no spill activity reported:\n%s", args, out)
		}
	}
	for _, dir := range []string{tmp, spillDir} {
		left, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range left {
			t.Errorf("left behind in %s: %s", dir, e.Name())
		}
	}
}

// TestRejectedFlagSets: mpcheck has no validation of its own — the
// messages are the facade's rule table's (and cli.BuildProperty's for
// -fair) — and a rejected run prints nothing to stdout and exits 1.
func TestRejectedFlagSets(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-search", "bfs", "-chunk", "4"}, "mpcheck: mpbasset: ChunkSize (-chunk) requires Workers (-workers)"},
		{[]string{"-lossy", "-property", "decided"}, "mpcheck: mpbasset: Lossy (-lossy) is incompatible with Property (-property)"},
		{[]string{"-search", "dfs", "-workers", "2", "-chunk", "4"}, "mpcheck: mpbasset: ChunkSize (-chunk) requires SearchBFS"},
		{[]string{"-fair"}, "mpcheck: -fair requires -property"},
		{[]string{"-search", "nosuch"}, `mpcheck: unknown search "nosuch"`},
	} {
		code, out, errOut := mpcheck(tc.args...)
		if code != 1 || out != "" || !strings.Contains(errOut, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 and %q", tc.args, code, out, errOut, tc.want)
		}
	}
}
