//go:build reachcheck

package repro

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoUnreachedFuncs fails on any function or method declared in a
// non-test file under internal/ that no binary of the repository links
// and that testdata/reach_allow.txt does not list with a reason. The
// binaries are every main package, the bench module, and cmd/mopeye
// under -tags realtun (the kernel TUN backend). They are built without
// inlining, so a function the compiler would inline everywhere still
// has a symbol, and the linker's dead-code pass decides the rest.
//
// It builds twelve binaries, so it runs only under -tags reachcheck:
//
//	go test -tags reachcheck -run TestNoUnreachedFuncs -timeout 20m .
func TestNoUnreachedFuncs(t *testing.T) {
	bin := t.TempDir()
	for _, args := range [][]string{
		{"build", "-gcflags=all=-l", "-o", filepath.Join(bin, "default") + string(filepath.Separator), "./..."},
		{"-C", "bench", "build", "-gcflags=all=-l", "-o", filepath.Join(bin, "bench"), "."},
		{"build", "-tags", "realtun", "-gcflags=all=-l", "-o", filepath.Join(bin, "mopeye-realtun"), "./cmd/mopeye"},
	} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}

	reached := map[string]bool{}
	binaries := 0
	err := filepath.WalkDir(bin, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		binaries++
		out, err := exec.Command("go", "tool", "nm", path).Output()
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(out), "\n") {
			// An nm line is "address type name"; a name may hold spaces
			// (struct shapes), so everything after the type is the name.
			f := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			if key, ok := symbolKey(f[2]); ok {
				reached[key] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("reading symbols: %v", err)
	}

	declared := declaredFuncs(t, "internal")
	allowed := readAllowlist(t, filepath.Join("testdata", "reach_allow.txt"))

	var unreached []string
	linked, allowlisted := 0, 0
	for key, pos := range declared {
		switch {
		case reached[key]:
			linked++
		case allowed[key]:
			allowlisted++
		default:
			unreached = append(unreached, pos+": "+key)
		}
	}
	fields := declaredFields(t)
	for key := range allowed {
		if _, ok := declared[key]; !ok {
			if !fields[key] {
				t.Errorf("reach_allow.txt lists %s, which is neither a function declared under internal/ nor a field TestNoUnreadFields checks", key)
			}
		} else if reached[key] {
			t.Errorf("reach_allow.txt lists %s, which a binary links", key)
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("no binary links %s", u)
	}
	t.Logf("%d binaries link %d of the %d functions declared under internal/; %d more are allowlisted",
		binaries, linked, len(declared), allowlisted)
}

// declaredFuncs lists every function and method declared in a non-test
// file under root, whatever its build constraint, keyed as symbolKey
// keys a symbol, with the declaration's position. init functions are
// left out: no call names them.
func declaredFuncs(t *testing.T, root string) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	decls := map[string]string{}
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
		pkg, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			key := filepath.ToSlash(pkg) + "."
			if fn.Recv != nil {
				key += receiverName(fn.Recv.List[0].Type) + "."
			}
			key += fn.Name.Name
			decls[key] = fset.Position(fn.Pos()).String()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("listing declarations: %v", err)
	}
	return decls
}

// receiverName is the type name of a receiver: T for T, *T, T[K] and
// *T[K, V].
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// readAllowlist reads lines of the form "pkg.Name  # reason"; blank
// lines and lines that start with # are skipped. A line without a
// reason, or whose reason is only "unused", fails the test.
func readAllowlist(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open allowlist: %v", err)
	}
	defer f.Close()
	allowed := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, "#")
		key, reason = strings.TrimSpace(key), strings.TrimSpace(reason)
		if key == "" || reason == "" || strings.EqualFold(reason, "unused") || strings.ContainsAny(key, " \t") {
			t.Errorf("%s:%d: want \"pkg.Name  # reason\", got %q", path, n, line)
			continue
		}
		if allowed[key] {
			t.Errorf("%s:%d: %s listed twice", path, n, key)
		}
		allowed[key] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read allowlist: %v", err)
	}
	return allowed
}
