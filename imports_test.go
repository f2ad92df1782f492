package evclimate_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unimportedAllowed names the internal packages that may have no
// importer in non-test code, each with the reason it is kept.
var unimportedAllowed = map[string]string{
	"internal/netchaos": "the fault-injecting transport and proxy the fabric chaos suites drive",
}

// TestEveryInternalPackageImported keeps "no packages that nothing
// imports" true: every package under internal/ must be imported by
// non-test code outside its own directory, in cmd/, examples/,
// internal/ or perfbench/, unless unimportedAllowed lists it.
func TestEveryInternalPackageImported(t *testing.T) {
	const module = "evclimate/"
	pkgs := map[string]bool{}     // internal package dirs, slash-separated
	imported := map[string]bool{} // package dirs some other dir imports
	fset := token.NewFileSet()
	for _, root := range []string{"cmd", "examples", "internal", "perfbench"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(p))
			if strings.HasPrefix(dir, "internal/") {
				pkgs[dir] = true
			}
			f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				ip, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					return err
				}
				if dep, ok := strings.CutPrefix(ip, module); ok && dep != dir {
					imported[dep] = true
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(pkgs) == 0 {
		t.Fatal("no internal packages found; run from the module root")
	}
	var orphans []string
	for dir := range pkgs {
		if !imported[dir] && unimportedAllowed[dir] == "" {
			orphans = append(orphans, dir)
		}
	}
	sort.Strings(orphans)
	for _, dir := range orphans {
		t.Errorf("%s has no importer outside its own directory; delete it or wire it in", dir)
	}
	for dir := range unimportedAllowed {
		if !pkgs[dir] || imported[dir] {
			t.Errorf("%s is gone or imported now; drop it from unimportedAllowed", dir)
		}
	}
}
