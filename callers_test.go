package romulus_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// callerAllowlist names the identifiers in internal/ that keep no
// production caller on purpose, each with its reason. An entry that gains a
// caller, or whose name is gone, fails TestEveryNameHasACaller: the list
// only shrinks with the code it excuses.
var callerAllowlist = map[string]string{
	"linearize":                 "test-support package: the linearizability checker the server tests run",
	"ptmtest":                   "test-support package: the conformance suite every engine's tests run",
	"flatcombine.Queue.Waiting": "test seam: server's TestLoneOperationParksBurstWatches watches who parks and who watches",
	"pmem.OffHeap":              "test seam: the footprint tests of pmem and core skip race builds, whose images stay on the heap",
}

// TestEveryNameHasACaller lists every identifier in internal/ that no
// production code calls: an exported name that non-test code in another
// package never references, or an unexported function or method that no
// non-test code references at all. Each one is deleted (with the tests that
// only exercise it), unexported if its own package uses it, or allowlisted
// above with a reason. See unusedNames for what counts as a caller.
func TestEveryNameHasACaller(t *testing.T) {
	unused, declared := unusedNames(t, ".")
	for _, p := range allowlistProblems(unused, declared, callerAllowlist) {
		t.Error(p)
	}
}

// TestCallerCheckFixture runs the check over testdata/callers, a module
// that declares one name with no caller, one method that satisfies an
// interface, one json-tagged field, one method of a type its root package
// re-exports and one allowlisted name: only the first is reported. An
// allowlist entry whose name gained a caller or no longer exists is
// reported too.
func TestCallerCheckFixture(t *testing.T) {
	unused, declared := unusedNames(t, filepath.Join("testdata", "callers"))
	allow := map[string]string{"lib.Seam": "test seam"}
	want := []string{"internal/lib/lib.go:9: lib.Unused has no production caller; delete it: no non-test code uses it"}
	if got := allowlistProblems(unused, declared, allow); !reflect.DeepEqual(got, want) {
		t.Errorf("fixture problems = %q, want %q", got, want)
	}
	allow["lib.Used"] = "stale: has a caller"
	allow["lib.Gone"] = "stale: no longer declared"
	want = []string{
		"allowlist entry lib.Gone names no declaration",
		"allowlist entry lib.Used has a production caller",
		"internal/lib/lib.go:9: lib.Unused has no production caller; delete it: no non-test code uses it",
	}
	if got := allowlistProblems(unused, declared, allow); !reflect.DeepEqual(got, want) {
		t.Errorf("stale-entry problems = %q, want %q", got, want)
	}
}

// allowlistProblems reports every unused name the allowlist does not
// excuse, and every allowlist entry that excuses nothing, sorted. An entry
// is a key of unused, or a package name that excuses all of its package.
func allowlistProblems(unused map[string]string, declared map[string]bool, allow map[string]string) []string {
	var out []string
	excused := map[string]bool{}
	for name, msg := range unused {
		pkg, _, _ := strings.Cut(name, ".")
		_, byName := allow[name]
		_, byPkg := allow[pkg]
		if !byName && !byPkg {
			out = append(out, msg)
		}
		excused[name], excused[pkg] = true, true
	}
	for name := range allow {
		switch {
		case !declared[name]:
			out = append(out, fmt.Sprintf("allowlist entry %s names no declaration", name))
		case !excused[name]:
			out = append(out, fmt.Sprintf("allowlist entry %s has a production caller", name))
		}
	}
	sort.Strings(out)
	return out
}

// listedPackage is the part of `go list -json` output the check reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct{ Main bool }
}

// checkedPackage is one type-checked package of the module.
type checkedPackage struct {
	path string // import path relative to the module: "internal/core", "" for the root
	pkg  *types.Package
	info *types.Info
}

// callerRoots are the test files of the root package that count as
// production callers: the benchmarks `make bench` runs and the godoc
// examples.
var callerRoots = []string{"bench_test.go", "example_test.go"}

// unusedNames type-checks the non-test code of the module at dir (and the
// root's callerRoots) and returns each identifier in its internal/ tree that
// has no production caller, keyed "pkg.Name" or "pkg.Type.Member" with its
// file:line, plus every such key it declares.
//
// An exported name counts as called when non-test code in another package
// references it, or when it is
//   - a method an interface requires: one the module declares, error,
//     fmt.Stringer, json.Marshaler, http.Handler or one of io's, or Unwrap;
//   - a method of an interface, and any non-test code calls it through
//     the interface;
//   - a struct field with a json tag;
//   - a field or method of a type the root package re-exports as an alias,
//     or of a type such a member's signature names (public library API);
//   - an Err* sentinel error (callers check it with errors.Is);
//   - a type named by the type of a name that counts as called, or one of
//     whose members counts as called.
//
// An unexported function or method counts as called when any non-test code
// references it, or when an interface requires it.
func unusedNames(t *testing.T, dir string) (unused map[string]string, declared map[string]bool) {
	t.Helper()
	dir, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}
	exports := map[string]string{}
	var mods []listedPackage // dependency order
	var modulePath string
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		exports[p.ImportPath] = p.Export
		if p.Module != nil && p.Module.Main {
			mods = append(mods, p)
			if p.Dir == dir {
				modulePath = p.ImportPath
			}
		}
	}

	fset := token.NewFileSet()
	imp := moduleImporter{
		checked: map[string]*types.Package{},
		gc: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			return os.Open(exports[path])
		}),
	}
	var pkgs []*checkedPackage
	check := func(path string, files []string) *checkedPackage {
		cp := &checkedPackage{path: strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/"), info: &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		var parsed []*ast.File
		for _, f := range files {
			af, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			parsed = append(parsed, af)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, parsed, cp.info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		cp.pkg = pkg
		imp.checked[path] = pkg
		pkgs = append(pkgs, cp)
		return cp
	}
	var root *checkedPackage
	for _, p := range mods {
		var files []string
		for _, f := range p.GoFiles {
			files = append(files, filepath.Join(p.Dir, f))
		}
		cp := check(p.ImportPath, files)
		if p.ImportPath == modulePath {
			root = cp
		}
	}
	if root == nil {
		t.Fatalf("go list found no root package in %s", dir)
	}
	var rootTests []string
	for _, f := range callerRoots {
		if _, err := os.Stat(filepath.Join(dir, f)); err == nil {
			rootTests = append(rootTests, filepath.Join(dir, f))
		}
	}
	if len(rootTests) > 0 {
		check(modulePath+"_test", rootTests)
	}

	// References: by another package's code (external) and by any code.
	external := map[types.Object]bool{}
	anywhere := map[types.Object]bool{}
	for _, cp := range pkgs {
		use := func(obj types.Object) {
			obj = origin(obj)
			anywhere[obj] = true
			if obj.Pkg() != nil && obj.Pkg() != cp.pkg {
				external[obj] = true
			}
		}
		for _, obj := range cp.info.Uses {
			use(obj)
		}
		// A promoted selection uses the embedded fields it passes through.
		for _, sel := range cp.info.Selections {
			typ := sel.Recv()
			for _, i := range sel.Index()[:len(sel.Index())-1] {
				st, ok := deref(typ).Underlying().(*types.Struct)
				if !ok {
					break
				}
				use(st.Field(i))
				typ = st.Field(i).Type()
			}
		}
	}

	// The interfaces whose methods count as called.
	var ifaces []*types.Interface
	addIface := func(obj types.Object) {
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				if it, ok := n.Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	addIface(types.Universe.Lookup("error"))
	for path, names := range map[string][]string{
		"fmt":           {"Stringer"},
		"encoding/json": {"Marshaler"},
		"net/http":      {"Handler"},
		"io":            {"Reader", "Writer", "Closer", "ReaderAt", "WriterAt", "ReaderFrom", "WriterTo", "Seeker", "ByteReader", "ByteWriter", "StringWriter"},
	} {
		if exports[path] == "" {
			continue // the module does not import it
		}
		pkg, err := imp.gc.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			addIface(pkg.Scope().Lookup(n))
		}
	}
	for _, cp := range pkgs {
		for _, n := range cp.pkg.Scope().Names() {
			addIface(cp.pkg.Scope().Lookup(n))
		}
	}

	// Names that count as called whoever references them.
	api := map[types.Object]bool{}
	reexported := map[*types.TypeName]bool{}
	var reexport func(typ types.Type)
	reexport = func(typ types.Type) {
		named, ok := deref(typ).(*types.Named)
		if !ok || reexported[named.Obj()] || named.Obj().Pkg() == nil || !strings.HasPrefix(named.Obj().Pkg().Path(), modulePath+"/internal/") {
			return
		}
		reexported[named.Obj()] = true
		var ms []types.Object
		ms = append(ms, members(named)...)
		if it, ok := named.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ms = append(ms, it.Method(i))
			}
		}
		for _, m := range ms {
			if !m.Exported() {
				continue
			}
			api[m] = true
			if sig, ok := m.Type().(*types.Signature); ok {
				for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
					for i := 0; i < tup.Len(); i++ {
						reexport(tup.At(i).Type())
					}
				}
			} else {
				reexport(m.Type())
			}
		}
	}
	for _, n := range root.pkg.Scope().Names() {
		if tn, ok := root.pkg.Scope().Lookup(n).(*types.TypeName); ok && tn.IsAlias() {
			reexport(tn.Type())
		}
	}
	for _, cp := range pkgs {
		for _, n := range cp.pkg.Scope().Names() {
			tn, ok := cp.pkg.Scope().Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			if _, ok := named.Underlying().(*types.Interface); ok {
				continue
			}
			for _, it := range ifaces {
				if !types.Implements(named, it) && !types.Implements(types.NewPointer(named), it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), false, m.Pkg(), m.Name()); obj != nil {
						api[obj] = true
					}
				}
			}
		}
	}

	// Every name internal/ declares, with the unexported functions and
	// methods; embedded fields are composition, not names, and are skipped.
	type decl struct {
		key string
		obj types.Object
	}
	var decls []decl
	iface := map[types.Object]bool{} // interface methods
	for _, cp := range pkgs {
		if !strings.HasPrefix(cp.path, "internal/") {
			continue
		}
		scope := cp.pkg.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			key := cp.pkg.Name() + "." + n
			decls = append(decls, decl{key, obj})
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				decls = append(decls, decl{key + "." + named.Method(i).Name(), named.Method(i)})
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					if f := u.Field(i); !f.Embedded() {
						if reflect.StructTag(u.Tag(i)).Get("json") != "" {
							api[f] = true
						}
						decls = append(decls, decl{key + "." + f.Name(), f})
					}
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					m := u.ExplicitMethod(i)
					iface[m] = true
					decls = append(decls, decl{key + "." + m.Name(), m})
				}
			}
		}
	}

	errorType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	called := func(obj types.Object) bool {
		switch {
		case !obj.Exported():
			// Unexported: only functions and methods are checked.
			fn, ok := obj.(*types.Func)
			return !ok || anywhere[fn] || api[fn] || fn.Name() == "init" || fn.Name() == "main"
		case iface[obj]:
			// Called through its interface, by the package or another.
			return anywhere[obj] || api[obj]
		}
		return external[obj] || api[obj] || obj.Name() == "Unwrap" ||
			strings.HasPrefix(obj.Name(), "Err") && types.Implements(obj.Type(), errorType)
	}
	// A type counts as called when a called name's type names it, or
	// through any member that is called.
	typeUsed := map[*types.TypeName]bool{}
	for tn := range reexported {
		typeUsed[tn] = true
	}
	seen := map[types.Type]bool{}
	var markTypes func(typ types.Type)
	markTypes = func(typ types.Type) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch t := typ.(type) {
		case *types.Named:
			typeUsed[t.Origin().Obj()] = true
			for i := 0; i < t.TypeArgs().Len(); i++ {
				markTypes(t.TypeArgs().At(i))
			}
		case *types.Alias:
			markTypes(types.Unalias(t))
		case *types.Pointer:
			markTypes(t.Elem())
		case *types.Slice:
			markTypes(t.Elem())
		case *types.Array:
			markTypes(t.Elem())
		case *types.Map:
			markTypes(t.Key())
			markTypes(t.Elem())
		case *types.Chan:
			markTypes(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					markTypes(tup.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				markTypes(t.Field(i).Type())
			}
		}
	}
	for _, d := range decls {
		if tn, ok := d.obj.(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok && !tn.IsAlias() {
				for _, m := range members(named) {
					if m.Pkg() == tn.Pkg() && called(m) {
						typeUsed[tn] = true
					}
				}
			}
		} else if called(d.obj) && d.obj.Exported() {
			markTypes(d.obj.Type())
		}
	}

	unused = map[string]string{}
	declared = map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		declared[d.obj.Pkg().Name()] = true
		if tn, ok := d.obj.(*types.TypeName); ok && (typeUsed[tn] || external[tn]) || called(d.obj) {
			continue
		}
		pos := fset.Position(d.obj.Pos())
		rel, _ := filepath.Rel(dir, pos.Filename)
		at := fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line)
		fix := "delete it: no non-test code uses it"
		if anywhere[d.obj] {
			fix = "unexport it: only its own package uses it"
		}
		unused[d.key] = fmt.Sprintf("%s: %s has no production caller; %s", at, d.key, fix)
	}
	return unused, declared
}

// members returns the fields and methods a named type's values carry,
// promoted ones included. The depth bound stops an embedding cycle through
// a pointer.
func members(named *types.Named) []types.Object {
	var out []types.Object
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		out = append(out, origin(ms.At(i).Obj()))
	}
	var fields func(st *types.Struct, depth int)
	fields = func(st *types.Struct, depth int) {
		for i := 0; i < st.NumFields() && depth < 4; i++ {
			f := st.Field(i)
			out = append(out, f)
			if inner, ok := deref(f.Type()).Underlying().(*types.Struct); ok && f.Embedded() {
				fields(inner, depth+1)
			}
		}
	}
	if st, ok := named.Underlying().(*types.Struct); ok {
		fields(st, 0)
	}
	return out
}

// origin maps an instantiated generic field or method to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Var:
		return o.Origin()
	case *types.Func:
		return o.Origin()
	}
	return obj
}

func deref(t types.Type) types.Type {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		return p.Elem()
	}
	return types.Unalias(t)
}

// moduleImporter resolves the module's own packages to the ones type-checked
// from source, so that a reference and its declaration are the same object,
// and every other package from the compiler's export data.
type moduleImporter struct {
	checked map[string]*types.Package
	gc      types.Importer
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.gc.Import(path)
}
