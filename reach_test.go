//go:build reach

package evclimate_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// TestReach is the reachability audit behind `make reach`: it builds
// every main package under cmd/ and examples/, plus the perfbench
// module, with inlining off, reads each binary's symbol table with
// `go tool nm`, and logs, grouped by package, every function or method
// declared in non-test code under internal/ that no binary links. The
// list is informational (test helpers and oracles show up in it too);
// the test fails only when a build or nm call fails.
func TestReach(t *testing.T) {
	goCmd := filepath.Join(runtime.GOROOT(), "bin", "go")
	run := func(dir string, args ...string) []byte {
		t.Helper()
		cmd := exec.Command(goCmd, args...)
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			var stderr []byte
			if ee, ok := err.(*exec.ExitError); ok {
				stderr = ee.Stderr
			}
			t.Fatalf("go %s (in %s): %v\n%s", strings.Join(args, " "), dir, err, stderr)
		}
		return out
	}

	// Every binary: the root module's main packages, then perfbench.
	type target struct{ dir, pkg string }
	var targets []target
	list := run(".", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./cmd/...", "./examples/...")
	for _, pkg := range strings.Fields(string(list)) {
		targets = append(targets, target{".", pkg})
	}
	targets = append(targets, target{"perfbench", "."})

	bin := t.TempDir()
	linked := map[string]bool{}
	for _, tg := range targets {
		out := filepath.Join(bin, filepath.Base(tg.pkg)) // main package names are distinct
		if tg.pkg == "." {
			out = filepath.Join(bin, tg.dir)
		}
		run(tg.dir, "build", "-gcflags=all=-l", "-o", out, tg.pkg)
		sc := bufio.NewScanner(bytes.NewReader(run(".", "tool", "nm", out)))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// "addr type name"; undefined symbols have no address.
			f := strings.Fields(sc.Text())
			if len(f) >= 3 {
				linked[stripTypeArgs(strings.Join(f[2:], " "))] = true
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d binaries, %d linked symbols", len(targets), len(linked))

	unlinked := map[string][]string{} // package dir → declarations
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		prefix := "evclimate/" + dir + "."
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			var names []string // the symbol forms the declaration may link as
			if fn.Recv == nil {
				names = []string{fn.Name.Name}
			} else {
				recv, ptr := receiverType(fn.Recv.List[0].Type)
				if ptr {
					names = []string{"(*" + recv + ")." + fn.Name.Name}
				} else {
					names = []string{recv + "." + fn.Name.Name, "(*" + recv + ")." + fn.Name.Name}
				}
			}
			found := false
			for _, n := range names {
				found = found || linked[prefix+n]
			}
			if !found {
				unlinked[dir] = append(unlinked[dir], names[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	dirs := make([]string, 0, len(unlinked))
	total := 0
	for dir, names := range unlinked {
		dirs = append(dirs, dir)
		total += len(names)
	}
	sort.Strings(dirs)
	t.Logf("%d functions and methods under internal/ that no binary links:", total)
	for _, dir := range dirs {
		names := unlinked[dir]
		sort.Strings(names)
		t.Logf("  %s: %s", dir, strings.Join(names, ", "))
	}
}

// receiverType returns a method receiver's type name without type
// parameters, and whether the receiver is a pointer.
func receiverType(e ast.Expr) (name string, ptr bool) {
	if star, ok := e.(*ast.StarExpr); ok {
		e, ptr = star.X, true
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name, ptr
	}
	return "?", ptr
}

// stripTypeArgs drops every bracketed type-argument list from a linker
// symbol ("pkg.(*T[...]).M" → "pkg.(*T).M"), so instantiated generics
// match their declarations.
func stripTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
