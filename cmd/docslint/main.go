// Command docslint checks the repository's Markdown files: every relative
// link must point to an existing file or directory, and every fragment
// (same-file `#anchor` or `file.md#anchor`) must match a heading in the
// target document, using GitHub's anchor derivation. External links
// (http, https, mailto) are not fetched. In the current-state documents —
// README.md, DESIGN.md and docs/ — every backticked repository path with a
// file extension (`internal/core/engine.go`, `results/table1.txt:3`) must
// also name an existing file, and every backticked Go name `pkg.Name` or
// `pkg.Type.Member` whose pkg is a repository package must name one of its
// declarations; the history files (CHANGES, ROADMAP, EXPERIMENTS) record
// paths and names that later changes remove, and are not checked for them.
//
//	docslint [root]   # default root: .
//
// Exit status 1 and one "file:line: message" per problem; used by
// `make docs-check`.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
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

// goNameRe matches a code span that is exactly a qualified Go name: pkg.Name
// or pkg.Type.Member with Name exported (a lowercase second element is a
// file name, as in `shard.go`).
var goNameRe = regexp.MustCompile("`([a-z][a-z0-9_]*)\\.[A-Z][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*)?`")

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

	names, err := loadGoNames(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docslint:", err)
		os.Exit(2)
	}
	broken := 0
	for _, f := range mdFiles {
		broken += checkFile(f, anchors)
		if rel, err := filepath.Rel(root, f); err == nil && codePathDocs(rel) {
			broken += checkCodePaths(root, f)
			broken += checkGoNames(names, f)
		}
	}
	if broken > 0 {
		fmt.Fprintf(os.Stderr, "docslint: %d broken link(s), stale code path(s) or stale Go name(s)\n", broken)
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

// goNames is what the repository's Go packages declare, keyed as documents
// cite it: "pkg.Name" for every top-level declaration and every method (a
// bare method name resolves: `shard.Update` names Store.Update), and
// "pkg.Type.Member" for every field, method and interface method. Packages
// sharing a name pool their declarations.
type goNames struct {
	pkgs, names map[string]bool
}

// loadGoNames parses every Go file under root.
func loadGoNames(root string) (goNames, error) {
	g := goNames{pkgs: map[string]bool{}, names: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "bin", "results", "testdata", "node_modules":
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		g.add(f)
		return nil
	})
	return g, err
}

func (g goNames) add(f *ast.File) {
	pkg := f.Name.Name
	g.pkgs[pkg] = true
	add := func(name ...string) { g.names[pkg+"."+strings.Join(name, ".")] = true }
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			add(d.Name.Name)
			if d.Recv != nil {
				add(typeName(d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n.Name)
					}
				case *ast.TypeSpec:
					add(s.Name.Name)
					var fields []*ast.Field
					switch t := s.Type.(type) {
					case *ast.StructType:
						fields = t.Fields.List
					case *ast.InterfaceType:
						fields = t.Methods.List
					}
					for _, fld := range fields {
						if len(fld.Names) == 0 { // embedded
							add(s.Name.Name, typeName(fld.Type))
						}
						for _, n := range fld.Names {
							add(s.Name.Name, n.Name)
							if _, ok := fld.Type.(*ast.FuncType); ok {
								add(n.Name) // interface method
							}
						}
					}
				}
			}
		}
	}
}

// typeName is the name of a receiver or embedded type: T, *T, T[P], pkg.T.
func typeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return typeName(t.X)
	case *ast.IndexExpr:
		return typeName(t.X)
	case *ast.IndexListExpr:
		return typeName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	}
	return ""
}

// checkGoNames reports every backticked pkg.Name or pkg.Type.Member in the
// Markdown file at path whose pkg is a repository package that declares no
// such name.
func checkGoNames(g goNames, path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docslint:", err)
		os.Exit(2)
	}
	broken := 0
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range goNameRe.FindAllStringSubmatch(line, -1) {
			name := strings.Trim(m[0], "`")
			if g.pkgs[m[1]] && !g.names[name] {
				fmt.Printf("%s:%d: stale Go name %q: package %s declares no such name\n", path, i+1, name, m[1])
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
