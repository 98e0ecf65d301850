// Command docslint checks the repository's Markdown files: every relative
// link must point to an existing file or directory, and every fragment
// (same-file `#anchor` or `file.md#anchor`) must match a heading in the
// target document, using GitHub's anchor derivation. External links
// (http, https, mailto) are not fetched. In the current-state documents —
// README.md, DESIGN.md and docs/ — every backticked repository path with a
// file extension (`internal/core/engine.go`, `results/table1.txt:3`) must
// also name an existing file; the history files (CHANGES, ROADMAP,
// EXPERIMENTS) record paths that later changes remove, and are not checked
// for them.
//
//	docslint [root]   # default root: .
//
// Exit status 1 and one "file:line: message" per problem; used by
// `make docs-check`.
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRe matches inline Markdown links and images: [text](target) with an
// optional "title". Targets with spaces must be angle-bracketed in
// Markdown, which this repo does not use, so a no-space target suffices.
var linkRe = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// codePathRe matches a code span holding a repository path with a file
// extension: at least one directory, path characters only (so globs,
// brace lists and placeholders are not paths), and an optional :line suffix.
var codePathRe = regexp.MustCompile("`((?:[A-Za-z0-9_.-]+/)+[A-Za-z0-9_-][A-Za-z0-9_.-]*\\.[A-Za-z0-9]+)(?::[0-9][0-9–-]*)?`")

// codePathDocs reports whether path (relative to the root) is a
// current-state document whose code paths must exist.
func codePathDocs(path string) bool {
	path = filepath.ToSlash(path)
	return path == "README.md" || path == "DESIGN.md" || strings.HasPrefix(path, "docs/")
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var mdFiles []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "bin", "results", "node_modules":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.EqualFold(filepath.Ext(path), ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "docslint:", err)
		os.Exit(2)
	}

	anchors := map[string]map[string]bool{} // md path -> set of heading anchors
	for _, f := range mdFiles {
		a, err := headingAnchors(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "docslint:", err)
			os.Exit(2)
		}
		anchors[filepath.Clean(f)] = a
	}

	broken := 0
	for _, f := range mdFiles {
		broken += checkFile(f, anchors)
		if rel, err := filepath.Rel(root, f); err == nil && codePathDocs(rel) {
			broken += checkCodePaths(root, f)
		}
	}
	if broken > 0 {
		fmt.Fprintf(os.Stderr, "docslint: %d broken link(s) or stale code path(s)\n", broken)
		os.Exit(1)
	}
}

func checkFile(path string, anchors map[string]map[string]bool) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docslint:", err)
		os.Exit(2)
	}
	broken := 0
	inFence := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			file, frag, _ := strings.Cut(target, "#")
			resolved := filepath.Clean(path)
			if file != "" {
				resolved = filepath.Clean(filepath.Join(filepath.Dir(path), file))
				if _, err := os.Stat(resolved); err != nil {
					fmt.Printf("%s:%d: broken link %q: no such file\n", path, i+1, target)
					broken++
					continue
				}
			}
			if frag != "" {
				set, ok := anchors[resolved]
				if !ok {
					// Fragment into a non-Markdown target (e.g. a source
					// file): nothing to validate.
					continue
				}
				if !set[strings.ToLower(frag)] {
					fmt.Printf("%s:%d: broken anchor %q: no matching heading in %s\n",
						path, i+1, target, resolved)
					broken++
				}
			}
		}
	}
	return broken
}

// checkCodePaths reports every backticked repository path in the Markdown
// file at path that names no existing file under root.
func checkCodePaths(root, path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docslint:", err)
		os.Exit(2)
	}
	broken := 0
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range codePathRe.FindAllStringSubmatch(line, -1) {
			if _, err := os.Stat(filepath.Join(root, m[1])); err != nil {
				fmt.Printf("%s:%d: stale code path %q: no such file\n", path, i+1, m[1])
				broken++
			}
		}
	}
	return broken
}

// headingAnchors derives the GitHub-style anchor for every heading in the
// file: lowercase, punctuation stripped, spaces to hyphens, "-N" suffixes
// for duplicates.
func headingAnchors(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := map[string]bool{}
	counts := map[string]int{}
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		text := strings.TrimLeft(line, "#")
		if text == line || !strings.HasPrefix(text, " ") && text != "" {
			continue // "#word" is not a heading
		}
		a := anchorOf(strings.TrimSpace(text))
		if n := counts[a]; n > 0 {
			set[fmt.Sprintf("%s-%d", a, n)] = true
		} else {
			set[a] = true
		}
		counts[a]++
	}
	return set, nil
}

func anchorOf(heading string) string {
	// Drop inline code/emphasis markers and links' bracket syntax first.
	heading = strings.NewReplacer("`", "", "*", "", "[", "", "]", "").Replace(heading)
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		default:
			// GitHub keeps Unicode letters; this repo's headings are ASCII
			// plus punctuation, which GitHub strips.
			if r > 127 {
				b.WriteRune(r)
			}
		}
	}
	return b.String()
}
