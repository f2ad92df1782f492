package main

import (
	"runtime"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: evclimate
cpu: AMD EPYC 7B13
BenchmarkSweep16Sequential-8   	     183	   6321207 ns/op	         2.531 scenarios/s	 2152865 B/op	   30920 allocs/op
BenchmarkSweep16Parallel-8     	    1024	   1100000 ns/op	        14.50 scenarios/s
PASS
ok  	evclimate	4.211s
pkg: evclimate/internal/sim
BenchmarkForecast	 4954735	       238.4 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	evclimate/internal/sim	1.902s
`

func TestParse(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU != "AMD EPYC 7B13" {
		t.Errorf("header = (%q, %q, %q)", rep.Goos, rep.Goarch, rep.CPU)
	}
	if rep.MaxProcs != 8 || rep.NumCPU != runtime.NumCPU() {
		t.Errorf("snapshot parallelism = (%d, %d), want (8, %d)",
			rep.MaxProcs, rep.NumCPU, runtime.NumCPU())
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}

	seq := rep.Benchmarks[0]
	if seq.Name != "BenchmarkSweep16Sequential" || seq.Procs != 8 || seq.Pkg != "evclimate" {
		t.Errorf("bench 0 = %+v", seq)
	}
	if seq.Iterations != 183 {
		t.Errorf("bench 0 iterations = %d, want 183", seq.Iterations)
	}
	for unit, want := range map[string]float64{
		"ns/op": 6321207, "scenarios/s": 2.531, "B/op": 2152865, "allocs/op": 30920,
	} {
		if got := seq.Metrics[unit]; got != want {
			t.Errorf("bench 0 %s = %v, want %v", unit, got, want)
		}
	}

	fc := rep.Benchmarks[2]
	if fc.Name != "BenchmarkForecast" || fc.Procs != 1 || fc.Pkg != "evclimate/internal/sim" {
		t.Errorf("bench 2 = %+v", fc)
	}
	if fc.Metrics["ns/op"] != 238.4 || fc.Metrics["allocs/op"] != 0 {
		t.Errorf("bench 2 metrics = %v", fc.Metrics)
	}
}

func report(name string, ns float64) *Report {
	return &Report{Benchmarks: []Benchmark{
		{Name: name, Procs: 1, Iterations: 10, Metrics: map[string]float64{"ns/op": ns}},
	}}
}

func TestGate(t *testing.T) {
	base := report("BenchmarkMPCSolveStep", 1000)
	cases := []struct {
		name  string
		fresh *Report
		ok    bool
	}{
		{"improvement", report("BenchmarkMPCSolveStep", 500), true},
		{"unchanged", report("BenchmarkMPCSolveStep", 1000), true},
		{"within tolerance", report("BenchmarkMPCSolveStep", 1140), true},
		{"beyond tolerance", report("BenchmarkMPCSolveStep", 1200), false},
		{"missing from fresh", report("BenchmarkOther", 100), false},
	}
	for _, tc := range cases {
		msg, err := Gate(tc.fresh, base, "BenchmarkMPCSolveStep", 0.15)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected gate failure: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: gate passed (%q), want failure", tc.name, msg)
		}
	}
	// Missing from the baseline is also a hard failure (a renamed
	// benchmark must not silently disable the gate).
	if _, err := Gate(report("BenchmarkMPCSolveStep", 100), report("BenchmarkOther", 100),
		"BenchmarkMPCSolveStep", 0.15); err == nil {
		t.Error("missing baseline entry passed the gate")
	}
}

func TestGateRejectsMissingNsOp(t *testing.T) {
	fresh := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkMPCSolveStep", Metrics: map[string]float64{"B/op": 0}},
	}}
	if _, err := Gate(fresh, report("BenchmarkMPCSolveStep", 1000), "BenchmarkMPCSolveStep", 0.15); err == nil {
		t.Error("fresh result without ns/op passed the gate")
	}
}

// A rise in an exact work count fails the gate even when ns/op is
// within tolerance; a fall passes, and a benchmark whose baseline has no
// work counts is gated on ns/op alone.
func TestGateRejectsMoreWork(t *testing.T) {
	withWork := func(qpIters, capped float64) *Report {
		r := report("BenchmarkMPCSolveStep", 1000)
		r.Benchmarks[0].Metrics["qpiters/op"] = qpIters
		r.Benchmarks[0].Metrics["capped/op"] = capped
		return r
	}
	base := withWork(16, 0)
	cases := []struct {
		name  string
		fresh *Report
		ok    bool
	}{
		{"same work", withWork(16, 0), true},
		{"less work", withWork(15, 0), true},
		{"more qp iterations", withWork(17, 0), false},
		{"a capped QP", withWork(16, 1), false},
		{"work counts missing", report("BenchmarkMPCSolveStep", 1000), false},
	}
	for _, tc := range cases {
		msg, err := Gate(tc.fresh, base, "BenchmarkMPCSolveStep", 0.15)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected gate failure: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: gate passed (%q), want failure", tc.name, msg)
		}
	}
	if _, err := Gate(withWork(99, 9), report("BenchmarkMPCSolveStep", 1000), "BenchmarkMPCSolveStep", 0.15); err != nil {
		t.Errorf("baseline without work counts: %v", err)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	rep, err := Parse(strings.NewReader("random line\nBenchmarkBroken abc\nPASS\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Errorf("parsed %d benchmarks from noise, want 0", len(rep.Benchmarks))
	}
}

// MaxProcs is the benchmarks' GOMAXPROCS, read from their -cpu suffix,
// not benchjson's own: `go test -cpu 1` piped into a benchjson on a
// many-core host records 1, and an unsuffixed line counts as 1.
func TestMaxProcsFromCPUSuffix(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
	}{
		{"BenchmarkMPCSolveStep \t 216 \t 5616704 ns/op\nBenchmarkKKTSolve \t 500000 \t 2600 ns/op\n", 1},
		{"BenchmarkA-2 \t 10 \t 100 ns/op\nBenchmarkB-4 \t 10 \t 100 ns/op\nBenchmarkC \t 10 \t 100 ns/op\n", 4},
		{"PASS\n", 0},
	} {
		rep, err := Parse(strings.NewReader(tc.in))
		if err != nil {
			t.Fatal(err)
		}
		if rep.MaxProcs != tc.want {
			t.Errorf("%q: maxprocs %d, want %d", tc.in, rep.MaxProcs, tc.want)
		}
	}
}

// TestParseFoldsRepeatsToMedian: `go test -count N` prints one line per
// run; Parse keeps one entry per benchmark, in first-seen order, holding
// each metric's median, and keeps benchmarks of other packages or
// GOMAXPROCS apart.
func TestParseFoldsRepeatsToMedian(t *testing.T) {
	const runs = `pkg: evclimate
BenchmarkMPCSolveStep-2   	 500	 3750000 ns/op	 16.00 qpiters/op	 0 B/op
BenchmarkMPCSolveStep-2   	 700	 2260000 ns/op	 16.00 qpiters/op	 0 B/op
BenchmarkQPColdFixture-2  	 100	 9000 ns/op
BenchmarkMPCSolveStep-2   	 600	 2500000 ns/op	 16.00 qpiters/op	 0 B/op
BenchmarkMPCSolveStep-1   	 900	 2000000 ns/op
BenchmarkQPColdFixture-2  	 300	 7000 ns/op
pkg: evclimate/internal/qp
BenchmarkQPColdFixture-2  	 50	 5000 ns/op
`
	rep, err := Parse(strings.NewReader(runs))
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		pkg, name string
		procs     int
		iters     int64
		ns        float64
	}
	wants := []want{
		{"evclimate", "BenchmarkMPCSolveStep", 2, 600, 2500000}, // odd count: the middle run
		{"evclimate", "BenchmarkQPColdFixture", 2, 200, 8000},   // even count: the mean of the middle two
		{"evclimate", "BenchmarkMPCSolveStep", 1, 900, 2000000},
		{"evclimate/internal/qp", "BenchmarkQPColdFixture", 2, 50, 5000},
	}
	if len(rep.Benchmarks) != len(wants) {
		t.Fatalf("parsed %d entries, want %d: %+v", len(rep.Benchmarks), len(wants), rep.Benchmarks)
	}
	for i, w := range wants {
		b := rep.Benchmarks[i]
		if b.Pkg != w.pkg || b.Name != w.name || b.Procs != w.procs || b.Iterations != w.iters || b.Metrics["ns/op"] != w.ns {
			t.Errorf("entry %d = %+v, want %+v", i, b, w)
		}
	}
	if m := rep.Benchmarks[0].Metrics; m["qpiters/op"] != 16 || m["B/op"] != 0 {
		t.Errorf("folded work counts = %v, want 16 qpiters/op and 0 B/op", m)
	}
}
