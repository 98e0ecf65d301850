package main

import (
	"os"
	"path/filepath"
	"testing"
)

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
