package server

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// docCommandRow matches one row of docs/PROTOCOL.md's command-reference
// table: a leading cell holding exactly one backticked upper-case verb.
var docCommandRow = regexp.MustCompile("^\\| `([A-Z]+)` \\|")

// commands is every verb the server dispatches, sorted.
// TestCommandsMatchesDispatch holds it to the dispatch switch and
// TestProtocolDocCoversEveryCommand to docs/PROTOCOL.md's command table, so
// the wire reference cannot silently fall behind the switch.
var commands = []string{
	"DECR", "DEL", "DISCARD", "EXEC", "EXPIRE", "GET", "INCR",
	"MULTI", "PING", "PLACEMENT", "QUIT", "SCRUB", "SET", "SPLIT",
	"STATS", "TTL",
}

// TestProtocolDocCoversEveryCommand diffs the command table of
// docs/PROTOCOL.md against the server's dispatch set (commands), both ways:
// a verb the server dispatches but the doc omits fails, and so does a verb
// the doc promises but the server no longer serves. This is what keeps the
// wire reference from silently falling behind the dispatch switch.
func TestProtocolDocCoversEveryCommand(t *testing.T) {
	data, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatalf("reading protocol reference: %v", err)
	}
	// Scan only the "## Command reference" section: later tables (the error
	// taxonomy) reuse the cell format for reply tokens, not commands.
	documented := map[string]bool{}
	inSection := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "## ") {
			inSection = strings.HasPrefix(line, "## Command reference")
			continue
		}
		if !inSection {
			continue
		}
		if m := docCommandRow.FindStringSubmatch(line); m != nil {
			documented[m[1]] = true
		}
	}
	if len(documented) == 0 {
		t.Fatal("no command rows found in docs/PROTOCOL.md; did the table format change?")
	}

	served := commands
	for _, verb := range served {
		if !documented[verb] {
			t.Errorf("command %s is dispatched by the server but missing from docs/PROTOCOL.md's command table", verb)
		}
	}
	var extra []string
	servedSet := map[string]bool{}
	for _, verb := range served {
		servedSet[verb] = true
	}
	for verb := range documented {
		if !servedSet[verb] {
			extra = append(extra, verb)
		}
	}
	sort.Strings(extra)
	for _, verb := range extra {
		t.Errorf("docs/PROTOCOL.md documents %s, which the server does not dispatch", verb)
	}
}

// docStatsKeyRow matches one row of the "### STATS fields" table: a leading
// cell holding exactly one backticked snake_case key.
var docStatsKeyRow = regexp.MustCompile("^\\| `([a-z_]+)` \\|")

// TestProtocolDocCoversStatsFields diffs the STATS-fields table of
// docs/PROTOCOL.md against a marshaled StatsReply, both ways: a top-level
// key the server sends but the doc omits fails, and so does a documented
// key the reply no longer carries. The group_commit sub-keys are pinned
// too (they are named in the section's prose).
func TestProtocolDocCoversStatsFields(t *testing.T) {
	data, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatalf("reading protocol reference: %v", err)
	}
	documented := map[string]bool{}
	inSection := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "#") {
			inSection = strings.Contains(line, "STATS fields")
			continue
		}
		if !inSection {
			continue
		}
		if m := docStatsKeyRow.FindStringSubmatch(line); m != nil {
			documented[m[1]] = true
		}
	}
	if len(documented) == 0 {
		t.Fatal("no STATS field rows found in docs/PROTOCOL.md; did the table format change?")
	}

	st := newTestStore(t)
	defer st.Close()
	srv := New(st, Options{})
	defer srv.Shutdown(context.Background())
	raw, err := json.Marshal(srv.StatsReply())
	if err != nil {
		t.Fatal(err)
	}
	var reply map[string]json.RawMessage
	if err := json.Unmarshal(raw, &reply); err != nil {
		t.Fatal(err)
	}
	for key := range reply {
		if !documented[key] {
			t.Errorf("STATS sends top-level key %q, missing from docs/PROTOCOL.md's STATS fields table", key)
		}
	}
	for key := range documented {
		if _, ok := reply[key]; !ok {
			t.Errorf("docs/PROTOCOL.md documents STATS key %q, which the reply does not carry", key)
		}
	}

	var group map[string]json.RawMessage
	if err := json.Unmarshal(reply["group_commit"], &group); err != nil {
		t.Fatalf("group_commit is not an object: %v", err)
	}
	doc := string(data)
	for key := range group {
		if !strings.Contains(doc, "`"+key+"`") {
			t.Errorf("STATS group_commit sends sub-key %q, not named in docs/PROTOCOL.md", key)
		}
	}
	for _, key := range []string{"batches", "batch_ops", "solo_runs", "reroutes", "mean_batch_ops", "queue_depth"} {
		if _, ok := group[key]; !ok {
			t.Errorf("documented group_commit sub-key %q missing from the reply", key)
		}
	}

	var placement map[string]json.RawMessage
	if err := json.Unmarshal(reply["placement"], &placement); err != nil {
		t.Fatalf("placement is not an object: %v", err)
	}
	for key := range placement {
		if !strings.Contains(doc, "`"+key+"`") {
			t.Errorf("STATS placement sends sub-key %q, not named in docs/PROTOCOL.md", key)
		}
	}
	// migration is omitempty — present only while a journal is open — so only
	// the always-present keys are required here; migrate tests cover the rest.
	for _, key := range []string{"slots", "version", "shard_slots"} {
		if _, ok := placement[key]; !ok {
			t.Errorf("documented placement sub-key %q missing from the reply", key)
		}
	}
}

// TestCommandsMatchesDispatch drives every verb commands claims through a
// live server, asserting none answers "ERR unknown command" — so the list
// the doc test trusts is itself honest about the dispatch switch.
func TestCommandsMatchesDispatch(t *testing.T) {
	st := newTestStore(t)
	defer st.Close()
	srv, addr, done := startServer(t, st)
	defer func() {
		srv.Shutdown(context.Background())
		<-done
	}()

	for _, verb := range commands {
		if verb == "QUIT" {
			continue // closes the connection; dispatch is pinned by other tests
		}
		cl := dial(t, addr)
		reply, err := cl.do(verb)
		cl.c.Close()
		if err != nil {
			t.Fatalf("%s: %v", verb, err)
		}
		if strings.HasPrefix(reply, "ERR unknown command") {
			t.Errorf("commands lists %s but the server does not dispatch it: %q", verb, reply)
		}
	}
}
