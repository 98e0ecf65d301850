package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRepositoryDocs runs every check over the repository itself, so a
// change that leaves a broken link, a stale code path or a stale Go name in
// README.md, DESIGN.md or docs/ fails `go test ./...`, not only
// `make docs-check`. Each problem is printed as "file:line: message".
func TestRepositoryDocs(t *testing.T) {
	broken, err := lint(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if broken > 0 {
		t.Errorf("%d broken link(s), stale code path(s) or stale Go name(s); see the lines above", broken)
	}
}

// TestCheckCodePaths pins which code spans count as repository paths: a
// missing one is reported, existing ones (with or without a :line suffix)
// pass, and spans that are not paths — no directory, no extension, globs,
// brace lists, prose — are left alone.
func TestCheckCodePaths(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "internal/core"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "internal/core/engine.go"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	doc := filepath.Join(root, "DESIGN.md")
	body := "The engine is `internal/core/engine.go` (see `internal/core/engine.go:97`).\n" +
		"Gone: `internal/core/rangelog.go`.\n" +
		"Not paths: `engine.go`, `internal/core`, `cmd/romulus-*/main.go`, `internal/{pmem,core}/x.go`, `a b/c.go`.\n"
	if err := os.WriteFile(doc, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := checkCodePaths(root, doc); got != 1 {
		t.Errorf("checkCodePaths = %d problems, want 1 (the removed rangelog.go)", got)
	}
	for path, want := range map[string]bool{
		"README.md": true, "DESIGN.md": true, "docs/FAULTS.md": true,
		"CHANGES.md": false, "ROADMAP.md": false, "EXPERIMENTS.md": false,
		"benchmarks/README.md": false,
	} {
		if got := codePathDocs(path); got != want {
			t.Errorf("codePathDocs(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestCheckGoNames pins the Go-name rule: a backticked pkg.Name or
// pkg.Type.Member of a repository package must resolve to a declaration —
// top-level, a field, a method (bare or on its type) or an interface
// method — while other packages, file names and unexported second elements
// are left alone.
func TestCheckGoNames(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "internal/obs"), 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package obs\n\n" +
		"type Registry struct{ Name string }\n\n" +
		"func (r *Registry) Counter() {}\n\n" +
		"type Sink interface{ Emit() }\n\n" +
		"func NewRegistry() *Registry { return nil }\n"
	if err := os.WriteFile(filepath.Join(root, "internal/obs/obs.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	names, err := loadGoNames(root)
	if err != nil {
		t.Fatal(err)
	}
	doc := filepath.Join(root, "DESIGN.md")
	body := "Resolve: `obs.Registry`, `obs.NewRegistry`, `obs.Registry.Name`, `obs.Registry.Counter`,\n" +
		"`obs.Counter`, `obs.Sink.Emit`, `obs.Emit`.\n" +
		"Stale: `obs.Tee`, `obs.Registry.Gauge`, `obs.Sink.Flush`.\n" +
		"Not checked: `sync.Mutex`, `obs.go`, `obs.newSink`, `obs.Registry.Counter()`, `x.obs.Tee`.\n"
	if err := os.WriteFile(doc, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := checkGoNames(names, doc); got != 3 {
		t.Errorf("checkGoNames = %d problems, want 3 (Tee, Registry.Gauge, Sink.Flush)", got)
	}
}
