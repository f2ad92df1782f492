//go:build reach

package evclimate_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// reachAllowed names what under internal/ may stay unlinked by every
// binary, each with the reason and the tests that use it: test oracles
// and fixtures that the tests of more than one package share. A key is
// a package directory (every function in it) or a directory, a dot and
// a function as TestReach spells it ("internal/mat.(*Dense).Mul").
var reachAllowed = map[string]string{
	"internal/netchaos": "the seeded fault transport and proxy that fabric's TestNetChaosMatrix and TestCallDeadlineUnsticksBlackHole drive",

	"internal/control.(*Constant).Decide":        constantUse,
	"internal/control.(*Constant).Name":          constantUse,
	"internal/control.(*Constant).Reset":         constantUse,
	"internal/control.(*Constant).RestoreState":  constantUse,
	"internal/control.(*Constant).StateSnapshot": constantUse,
	"internal/control.(*Supervisor).Transitions": "the ladder history control's TestSupervisor* tests and sim's TestSupervisedLadderGolden check",

	"internal/drivecycle.(*Profile).WithAmbientFunc": "a time-varying ambient for drivecycle's TestEnvSamplerMatchesAt and TestProfileWithHelpers and sim's batch lane-independence fixtures (batchLaneConfigs, oracleLanes)",

	"internal/mat.FromRows":               "literal matrices in qp's hand-built QP tests and FuzzSolve, and mat's own fixtures (TestFromRowsAndAt, TestMaxAbs, TestRawRowAliasesStorage)",
	"internal/mat.Identity":               "Hessians of qp's QP tests, sqp's TestInfeasibleSubproblemFails and the root BenchmarkQPInteriorPoint pair",
	"internal/mat.NewDenseData":           "the cold-fixture Hessian blocks of qp's coldDemotionQP and the root BenchmarkQPColdFixture",
	"internal/mat.(*Dense).At":            "reads of dense oracles in qp's saddle and buildStageQP and mat's TestFromRowsAndAt and TestTransposeInvolution",
	"internal/mat.(*Dense).Add":           spdUse,
	"internal/mat.(*Dense).T":             spdUse,
	"internal/mat.(*Dense).Mul":           spdUse,
	"internal/mat.(*Dense).MulVec":        "dense residuals in qp's TestKKTResidualsRandomProblems, backwardError and TestStageMatrixProducts, and mat's TestIntoVariantsBitIdentical oracle",
	"internal/qp.(*Problem).OneStage":     oneStageUse,
	"internal/qp.(*StageMatrix).oneStage": oneStageUse,
	"internal/qp.NewWorkspaceFor":         "pre-sized workspaces of qp's TestNewWorkspaceForFirstSolveNoAllocs and TestStructuredWarmSolveNoAllocs and the root BenchmarkQP*/BenchmarkMPCSolveStepThermal",

	"internal/runner.(*Journal).Syncs": "the fsync count runner's TestJournalLineIsJSONMarshal and fabric's TestCompletionOneFsync pin: one per Append, whatever its record count",
}

const (
	constantUse = "the fixed-input test controller of control's TestConstantController, TestControllerNames and batch tests and sim's TestConstantControllerEnergyBookkeeping"
	spdUse      = "random positive definite Hessians GᵀG + cI in qp's randomQP, TestCholeskySolveMatchesLU and TestLUFactorizeSolveIntoNoAllocs and sqp's randStageSub"
	oneStageUse = "the one-stage form qp's stage tests, FuzzStageKKT and TestNewtonStepMatchesLU, core's TestStructuredVsDenseEquivalence and the root BenchmarkQPStructuredDense solve against"
)

// TestReach is the reachability gate behind `make reach`: it builds
// every main package under cmd/ and examples/, plus the perfbench
// module, with inlining off, reads each binary's symbol table with
// `go tool nm`, and logs, grouped by package, every function or method
// declared in non-test code under internal/ that no binary links. It
// fails on each such function reachAllowed does not name, and on each
// reachAllowed entry that no longer names an unlinked function.
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
	stale := maps.Clone(reachAllowed)
	for dir, names := range unlinked {
		dirs = append(dirs, dir)
		total += len(names)
		delete(stale, dir)
	}
	sort.Strings(dirs)
	t.Logf("%d functions and methods under internal/ that no binary links:", total)
	for _, dir := range dirs {
		names := unlinked[dir]
		sort.Strings(names)
		t.Logf("  %s: %s", dir, strings.Join(names, ", "))
		for _, name := range names {
			key := dir + "." + name
			delete(stale, key)
			if reachAllowed[dir] == "" && reachAllowed[key] == "" {
				t.Errorf("%s: no binary links it; delete it, move it into the tests of the one package that uses it, or add it to reachAllowed with the tests that share it", key)
			}
		}
	}
	var staleKeys []string
	for key := range stale {
		staleKeys = append(staleKeys, key)
	}
	sort.Strings(staleKeys)
	for _, key := range staleKeys {
		t.Errorf("%s is linked by a binary or gone; drop it from reachAllowed", key)
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
