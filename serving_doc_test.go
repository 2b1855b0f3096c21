package uhtm_test

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"uhtm/internal/server"
)

// TestServingDocCoversCommands pins SERVING.md's command table to
// server.Commands() — the registry the dispatcher actually executes —
// in both directions: a command the server implements but the doc
// omits fails, and a command the doc's table lists but the server
// doesn't implement fails. The description cells must match the
// registry verbatim so the two cannot drift apart silently.
func TestServingDocCoversCommands(t *testing.T) {
	data, err := os.ReadFile("SERVING.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)

	// Collect the documented command names: table rows of the form
	// "| `NAME` | ... |" anywhere in the file.
	rowRe := regexp.MustCompile("(?m)^\\| `([A-Z]+)` \\|")
	documented := map[string]bool{}
	for _, m := range rowRe.FindAllStringSubmatch(doc, -1) {
		documented[m[1]] = true
	}

	implemented := map[string]bool{}
	for _, c := range server.Commands() {
		implemented[c.Name] = true
		if !documented[c.Name] {
			t.Errorf("SERVING.md command table omits %s — add a row for it", c.Name)
			continue
		}
		// The row's description cell must be the registry's Desc.
		row := fmt.Sprintf("| `%s` |", c.Name)
		i := strings.Index(doc, row)
		line := doc[i:]
		if j := strings.IndexByte(line, '\n'); j >= 0 {
			line = line[:j]
		}
		if !strings.Contains(line, "| "+c.Desc+" |") {
			t.Errorf("SERVING.md row for %s does not carry the registry description %q:\n%s",
				c.Name, c.Desc, line)
		}
		wantMulti := "no"
		if c.InMulti {
			wantMulti = "yes"
		}
		if !strings.Contains(line, "| "+wantMulti+" |") {
			t.Errorf("SERVING.md row for %s: In-MULTI column should be %q:\n%s",
				c.Name, wantMulti, line)
		}
	}
	for name := range documented {
		if !implemented[name] {
			t.Errorf("SERVING.md documents %s but the server does not implement it", name)
		}
	}

	// The operational error strings clients must handle are documented.
	for _, want := range []string{
		"EXECABORT",
		"lost power",
		"shutting down",
		"protocol error",
		"is not allowed inside MULTI on a sharded server",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("SERVING.md no longer mentions the %q error", want)
		}
	}

	// The sharded-serving surface stays documented: the CLI knobs and
	// the report/STATS fields the load generator exposes for the 2PC
	// path.
	for _, want := range []string{
		"-shards",
		"-crossfrac",
		"cross_frac",
		"cross_commits",
		"cross_aborts",
		"ShardOf",
		"Cluster.Recover",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("SERVING.md no longer documents %q (sharded serving section)", want)
		}
	}
}
