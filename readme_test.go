package mpbasset_test

import (
	"os"
	"strings"
	"testing"

	"mpbasset"
)

// readmeTable returns the cells of the first Markdown table after the
// README heading that starts with heading, one slice per body row, with
// surrounding backticks stripped.
func readmeTable(t *testing.T, readme, heading string) [][]string {
	t.Helper()
	at := strings.Index(readme, "\n"+heading)
	if at < 0 {
		t.Fatalf("README has no heading %q", heading)
	}
	var rows [][]string
	inTable := false
	for _, line := range strings.Split(readme[at+1:], "\n")[1:] {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		if !inTable {
			inTable = true // the header row
			continue
		}
		if strings.HasPrefix(line, "|---") {
			continue
		}
		var cells []string
		for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
			cells = append(cells, strings.Trim(strings.TrimSpace(c), "`"))
		}
		rows = append(rows, cells)
	}
	if len(rows) == 0 {
		t.Fatalf("README has no table under %q", heading)
	}
	return rows
}

// TestReadmeMatchesTables holds README's engine matrix and
// option-compatibility table to the engines and rules tables of
// mpbasset.go: every engine and every rule has its row, and README names
// no engine or refusal the code lacks.
func TestReadmeMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)

	documented := map[string]bool{}
	for _, row := range readmeTable(t, readme, "## Engines and reductions") {
		documented[row[1]] = true
	}
	engines := map[string]bool{}
	for _, name := range mpbasset.EngineNames() {
		engines[name] = true
		if !documented[name] {
			t.Errorf("engine %q has no row in README's engine matrix", name)
		}
	}
	for name := range documented {
		if !engines[name] {
			t.Errorf("README's engine matrix lists %q, which the engines table lacks", name)
		}
	}

	refused := map[string]bool{}
	for _, row := range readmeTable(t, readme, "### Option compatibility") {
		refused[row[0]] = true
	}
	rules := map[string]bool{}
	for _, msg := range mpbasset.RuleMessages() {
		head, _, _ := strings.Cut(msg, ": ")
		rules[head] = true
		if !refused[head] {
			t.Errorf("rule %q has no row in README's option-compatibility table", head)
		}
	}
	for head := range refused {
		if !rules[head] {
			t.Errorf("README's option-compatibility table lists %q, which the rules table lacks", head)
		}
	}
}
