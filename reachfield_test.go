//go:build reachcheck

package repro

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoUnreadFields fails on two kinds of data that nothing uses:
//
//   - a struct field declared in a non-test file under internal/, mopeye/
//     or cmd/ that no non-test code reads;
//   - an exported field of an exported struct there that no non-test
//     code sets: a setting nothing sets is a constant.
//
// It type-checks every non-test package of the module, and the bench
// module as a consumer of it, once with the default build tags and once
// with -tags realtun (the kernel TUN backend). A use under either counts.
//
// Assignments, ++ and op-assignments, composite-literal keys, delete and
// clear, and the atomic Add, Store, And and Or (as functions on &x.f or as
// methods of a sync/atomic field) write a field and do not read it. A
// struct compared with == or != or used as a map key reads every field
// it holds. Taking &x.f both reads and sets it. Embedded and blank fields
// are not checked: promotion and layout use them without naming them.
//
// A field that stays on purpose is listed in testdata/reach_allow.txt as
// "pkg.Type.Field  # reason", the reason naming its reader or what it
// waits for. Run it with
//
//	go test -tags reachcheck -run TestNoUnreadFields -timeout 20m .
func TestNoUnreadFields(t *testing.T) {
	// The source importer type-checks the standard library from GOROOT;
	// without cgo it needs no C toolchain and reads the pure-Go files.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)

	u := fieldUses{fset: fset, declared: map[string]string{}, settings: map[string]bool{},
		read: map[string]bool{}, set: map[string]bool{}, keys: map[*types.Var]string{}}
	for _, tags := range [][]string{nil, {"realtun"}} {
		ctxt := build.Default
		ctxt.BuildTags = tags
		l := &modLoader{t: t, fset: fset, ctxt: &ctxt, std: std, pkgs: map[string]*typedPkg{}}
		pkgs := l.loadAll()
		for _, p := range pkgs {
			u.declare(p)
		}
		for _, p := range pkgs {
			u.collect(p)
		}
	}

	allowed := readAllowlist(t, filepath.Join("testdata", "reach_allow.txt"))
	var bad []string
	allowlisted := 0
	for key, pos := range u.declared {
		unread, unset := !u.read[key], u.settings[key] && !u.set[key]
		switch {
		case allowed[key] && !unread && !unset:
			t.Errorf("reach_allow.txt lists %s, which code reads and, if exported, sets", key)
		case allowed[key]:
			allowlisted++
		case unread:
			bad = append(bad, pos+": nothing reads "+key)
		case unset:
			bad = append(bad, pos+": nothing sets "+key)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
	t.Logf("%d fields checked, %d of them settings; %d are allowlisted", len(u.declared), len(u.settings), allowlisted)
}

// typedPkg is one type-checked package and its non-test syntax.
type typedPkg struct {
	path  string
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// modLoader type-checks the packages of this module and of bench from
// source under one build context, and the standard library through std.
type modLoader struct {
	t    *testing.T
	fset *token.FileSet
	ctxt *build.Context
	std  types.Importer
	pkgs map[string]*typedPkg
}

// loadAll type-checks every package under the module root and the bench
// module, skipping testdata and hidden directories.
func (l *modLoader) loadAll() []*typedPkg {
	var all []*typedPkg
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if p := l.load(importPathOf(path)); p != nil {
			all = append(all, p)
		}
		return nil
	})
	if err != nil {
		l.t.Fatalf("walking the module: %v", err)
	}
	return all
}

// importPathOf maps a directory relative to the module root to its
// import path; bench is its own module, repro/bench.
func importPathOf(dir string) string {
	if dir == "." {
		return "repro"
	}
	return "repro/" + filepath.ToSlash(dir)
}

// load type-checks the package at an import path of this module, once,
// and returns nil for a directory that holds no Go file for the context.
func (l *modLoader) load(path string) *typedPkg {
	if p, ok := l.pkgs[path]; ok {
		return p
	}
	dir := "."
	if path != "repro" {
		dir = filepath.FromSlash(strings.TrimPrefix(path, "repro/"))
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			l.pkgs[path] = nil
			return nil
		}
		l.t.Fatalf("%s: %v", dir, err)
	}
	p := &typedPkg{path: path, info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			l.t.Fatalf("parse: %v", err)
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	p.types, err = conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		l.t.Fatalf("type-check %s (tags %v): %v", path, l.ctxt.BuildTags, err)
	}
	l.pkgs[path] = p
	return p
}

// Import implements types.Importer: this module's packages from source
// under the loader's build tags, everything else through std.
func (l *modLoader) Import(path string) (*types.Package, error) {
	if path == "repro" || strings.HasPrefix(path, "repro/") {
		return l.load(path).types, nil
	}
	return l.std.Import(path)
}

// fieldUses gathers, by key ("engine.Stats.SYNs", "mopeye.Options.Apps"),
// the fields declared where the check looks and the reads and sets of
// any field seen anywhere.
type fieldUses struct {
	fset     *token.FileSet
	declared map[string]string // key -> declaration position
	settings map[string]bool   // exported fields of exported structs
	read     map[string]bool
	set      map[string]bool
	keys     map[*types.Var]string // every struct field this module declares
}

// checkedDir reports whether fields declared in the package at path are
// checked.
func checkedDir(path string) bool {
	for _, dir := range []string{"repro/internal/", "repro/mopeye", "repro/cmd/"} {
		if strings.HasPrefix(path, dir) {
			return true
		}
	}
	return false
}

// declare records the fields p declares, under the key that
// walkStructFields gives each.
func (u *fieldUses) declare(p *typedPkg) {
	for _, f := range p.files {
		walkStructFields(pkgKeyOf(p.path), f, func(key string, name *ast.Ident, setting bool) {
			v, _ := p.info.Defs[name].(*types.Var)
			if v == nil {
				return
			}
			u.keys[v] = key
			if checkedDir(p.path) {
				u.declared[key] = u.fset.Position(name.Pos()).String()
				if setting {
					u.settings[key] = true
				}
			}
		})
	}
}

// collect records every read and set of a field in p's code.
func (u *fieldUses) collect(p *typedPkg) {
	writes := map[*ast.SelectorExpr]bool{}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						u.write(p, lhs, writes)
					}
				}
			case *ast.IncDecStmt:
				u.write(p, n.X, writes)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if v, _ := u.field(p, n.X); v != nil {
						u.set[u.key(v)] = true
					}
				}
			case *ast.CompositeLit:
				u.literal(p, n)
			case *ast.CallExpr:
				u.call(p, n, writes)
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					u.readAll(p.info.TypeOf(n.X), false, false, map[types.Type]bool{})
				}
			}
			return true
		})
	}
	for sel, s := range p.info.Selections {
		u.readPath(s)
		if s.Kind() == types.FieldVal && !writes[sel] {
			u.read[u.key(s.Obj().(*types.Var))] = true
		}
	}
	for _, tv := range p.info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			u.readAll(m.Key(), false, false, map[types.Type]bool{})
		}
	}
}

// key is the key of a field, or "" for one outside this module.
func (u *fieldUses) key(v *types.Var) string {
	return u.keys[v.Origin()]
}

// field returns the field e selects, after parentheses, and the
// selector, or nil.
func (u *fieldUses) field(p *typedPkg, e ast.Expr) (*types.Var, *ast.SelectorExpr) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	s := p.info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil, nil
	}
	return s.Obj().(*types.Var), sel
}

// write marks e, an expression being stored to, as a set that is not a
// read. Storing to an element of a field, or to a field of a struct
// held by value in a field, writes that field too.
func (u *fieldUses) write(p *typedPkg, e ast.Expr, writes map[*ast.SelectorExpr]bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.IndexExpr:
		if _, ok := p.info.TypeOf(x.X).Underlying().(*types.Pointer); !ok {
			u.write(p, x.X, writes)
		}
	case *ast.SelectorExpr:
		v, sel := u.field(p, x)
		if v == nil {
			return
		}
		writes[sel] = true
		u.set[u.key(v)] = true
		if _, ok := p.info.TypeOf(x.X).Underlying().(*types.Struct); ok {
			u.write(p, x.X, writes)
		}
	}
}

// call handles the calls that write without reading: delete and clear
// of a field, and the atomic Add, Store, And and Or, whether functions
// of sync/atomic on &x.f or methods of a sync/atomic type held in x.f.
func (u *fieldUses) call(p *typedPkg, c *ast.CallExpr, writes map[*ast.SelectorExpr]bool) {
	u.reflected(p, c)
	fun := ast.Unparen(c.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := p.info.Uses[id].(*types.Builtin); ok && (b.Name() == "delete" || b.Name() == "clear") {
			u.write(p, c.Args[0], writes)
		}
		return
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := p.info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" || !atomicWrite(obj.Name()) {
		return
	}
	if s := p.info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
		u.write(p, sel.X, writes)
		return
	}
	if len(c.Args) > 0 {
		if addr, ok := ast.Unparen(c.Args[0]).(*ast.UnaryExpr); ok && addr.Op == token.AND {
			u.write(p, addr.X, writes)
		}
	}
}

// atomicWrite reports whether a sync/atomic function or method of that
// name counts as a write: Add, Store, And and Or, with their typed forms
// such as AddInt64 and StoreUint32.
func atomicWrite(name string) bool {
	for _, prefix := range []string{"Add", "Store", "And", "Or"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// literal marks the fields a composite literal of a struct type sets.
func (u *fieldUses) literal(p *typedPkg, lit *ast.CompositeLit) {
	tv, ok := p.info.Types[lit]
	if !ok {
		return
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				if v, ok := p.info.Uses[id].(*types.Var); ok {
					u.set[u.key(v)] = true
				}
			}
		} else if i < st.NumFields() {
			u.set[u.key(st.Field(i))] = true
		}
	}
}

// readPath marks as read the embedded fields a selection passes through
// to reach a promoted field or method.
func (u *fieldUses) readPath(s *types.Selection) {
	t := s.Recv()
	idx := s.Index()
	for _, i := range idx[:len(idx)-1] {
		st, ok := deref(t).Underlying().(*types.Struct)
		if !ok {
			return
		}
		f := st.Field(i)
		u.read[u.key(f)] = true
		t = f.Type()
	}
}

// reflected handles the arguments a call passes as an empty interface,
// which fmt, encoding/json and their like walk by reflection: each reads
// every exported field its value holds, and a pointer also sets them.
// A value with its own String, Error, Format or MarshalJSON method is
// not walked: those callers call the method instead.
func (u *fieldUses) reflected(p *typedPkg, c *ast.CallExpr) {
	fun := p.info.Types[c.Fun]
	if fun.Type == nil || fun.IsType() {
		return
	}
	sig, ok := fun.Type.Underlying().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return
	}
	params := sig.Params()
	for i, arg := range c.Args {
		pt := params.At(min(i, params.Len()-1)).Type()
		if sig.Variadic() && i >= params.Len()-1 && !c.Ellipsis.IsValid() {
			pt = pt.(*types.Slice).Elem()
		}
		it, ok := pt.Underlying().(*types.Interface)
		at := p.info.TypeOf(arg)
		if !ok || !it.Empty() || at == nil || types.IsInterface(at) || rendersItself(at) {
			continue
		}
		_, ptr := at.Underlying().(*types.Pointer)
		u.readAll(at, true, ptr, map[types.Type]bool{})
	}
}

// rendersItself reports whether t has a method that fmt or
// encoding/json calls in place of walking its fields.
func rendersItself(t types.Type) bool {
	ms := types.NewMethodSet(t)
	for _, name := range []string{"String", "Error", "Format", "MarshalJSON"} {
		if ms.Lookup(nil, name) != nil {
			return true
		}
	}
	return false
}

// readAll marks as read every field of the structs t holds by value:
// every field for a struct compared or hashed whole, only the exported
// ones for a value walked by reflection (exported), which also sets them
// when it was passed by pointer (set). Reflection follows pointers,
// slices and maps as well.
func (u *fieldUses) readAll(t types.Type, exported, set bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch x := t.Underlying().(type) {
	case *types.Array:
		u.readAll(x.Elem(), exported, set, seen)
	case *types.Pointer:
		if exported {
			u.readAll(x.Elem(), exported, set, seen)
		}
	case *types.Slice:
		if exported {
			u.readAll(x.Elem(), exported, set, seen)
		}
	case *types.Map:
		if exported {
			u.readAll(x.Key(), exported, set, seen)
			u.readAll(x.Elem(), exported, set, seen)
		}
	case *types.Struct:
		for i := 0; i < x.NumFields(); i++ {
			f := x.Field(i)
			if exported && !f.Exported() {
				continue
			}
			u.read[u.key(f)] = true
			if set {
				u.set[u.key(f)] = true
			}
			u.readAll(f.Type(), exported, set, seen)
		}
	}
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// pkgKeyOf is the package part of an allowlist key: the import path
// below repro/internal/, or below repro/ outside internal/.
func pkgKeyOf(path string) string {
	return strings.TrimPrefix(strings.TrimPrefix(path, "repro/internal/"), "repro/")
}

// walkStructFields calls fn for each named field of each struct type f
// declares, with its key, pkgKey.Type.Field, and whether it is a
// setting: an exported field of an exported type. A field of an
// anonymous struct that a field holds is keyed through that field,
// pkgKey.Type.outer.Field, and is never a setting.
func walkStructFields(pkgKey string, f *ast.File, fn func(key string, name *ast.Ident, setting bool)) {
	var walk func(st *ast.StructType, prefix string, exported bool)
	walk = func(st *ast.StructType, prefix string, exported bool) {
		for _, fld := range st.Fields.List {
			if inner, ok := fld.Type.(*ast.StructType); ok && len(fld.Names) > 0 {
				walk(inner, prefix+fld.Names[0].Name+".", false)
			}
			for _, name := range fld.Names {
				if name.Name != "_" {
					fn(prefix+name.Name, name, exported && name.IsExported())
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok {
			if st, ok := ts.Type.(*ast.StructType); ok {
				walk(st, pkgKey+"."+ts.Name.Name+".", ts.Name.IsExported())
			}
		}
		return true
	})
}

// declaredFields lists, from syntax alone, the keys of the struct
// fields declared in non-test files under the checked directories,
// whatever their build constraints.
func declaredFields(t *testing.T) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	keys := map[string]bool{}
	for _, root := range []string{"internal", "mopeye", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			walkStructFields(pkgKeyOf(importPathOf(filepath.Dir(path))), f, func(key string, _ *ast.Ident, _ bool) {
				keys[key] = true
			})
			return nil
		})
		if err != nil {
			t.Fatalf("listing fields: %v", err)
		}
	}
	return keys
}
