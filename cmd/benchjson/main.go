// Command benchjson converts `go test -bench` text output into a stable
// JSON snapshot, so benchmark results can be committed and diffed across
// commits by machines instead of eyeballs.
//
// Usage:
//
//	go test -run '^$' -bench 'Sweep16' -benchmem . | benchjson -o BENCH_sweep.json
//
// The parser understands the standard benchmark line format — name with
// -GOMAXPROCS suffix, iteration count, then (value, unit) pairs — and
// keeps custom b.ReportMetric units alongside ns/op, B/op, and
// allocs/op. Header lines (goos, goarch, pkg, cpu) are carried into the
// snapshot; pkg scopes the benchmark names that follow it. Repeated runs
// of one benchmark (`go test -count N`) fold into one entry holding each
// metric's median, so a snapshot or a gate reads the typical run, not
// the last one.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Pkg is the import path of the package that declared the benchmark.
	Pkg string `json:"pkg"`
	// Name is the benchmark name without the -GOMAXPROCS suffix.
	Name string `json:"name"`
	// Procs is GOMAXPROCS while the benchmark ran (1 when unsuffixed).
	Procs int `json:"procs"`
	// Iterations is the measured b.N (the median over repeated runs).
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value: ns/op, B/op, allocs/op, and any custom
	// b.ReportMetric units, each the median over repeated runs.
	// encoding/json sorts the keys, keeping the snapshot diff-stable.
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the whole snapshot.
type Report struct {
	// Goos, Goarch, and CPU echo the `go test` environment header.
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// MaxProcs and NumCPU record the snapshot's parallelism: the largest
	// GOMAXPROCS any benchmark ran at (its -cpu suffix) and the machine's
	// core count. A "parallel" benchmark committed from a MaxProcs=1 run
	// measured no parallelism at all — exactly the shape that hid the
	// non-scaling sweep — so the snapshot carries enough context to
	// catch it.
	MaxProcs int `json:"maxprocs,omitempty"`
	NumCPU   int `json:"numcpu,omitempty"`
	// Benchmarks are the parsed results in input order.
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	gate := flag.String("gate", "", "baseline snapshot to gate against: exit 1 when the gated benchmark's ns/op regresses beyond -gate-tol or a work count (qpiters/op, capped/op) rises")
	gateBench := flag.String("gate-bench", "BenchmarkMPCSolveStep", "comma-separated benchmark names the -gate check compares")
	gateTol := flag.Float64("gate-tol", 0.15, "allowed fractional ns/op regression for -gate")
	flag.Parse()

	rep, err := Parse(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines on stdin (pipe `go test -bench` output in)"))
	}

	if *gate != "" {
		base, err := loadReport(*gate)
		if err != nil {
			fatal(err)
		}
		for _, name := range strings.Split(*gateBench, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			msg, err := Gate(rep, base, name, *gateTol)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintln(os.Stderr, "benchjson:", msg)
		}
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks written to %s\n", len(rep.Benchmarks), *out)
	}
}

// Parse reads `go test -bench` output and collects the report. Non-
// benchmark lines (PASS, ok, test logs) are ignored, so the full test
// output can be piped in unfiltered. Lines of one benchmark (package,
// name and GOMAXPROCS) fold into a single entry, at the position of its
// first line, that holds the median of each metric.
func Parse(r io.Reader) (*Report, error) {
	// benchjson runs in the same pipeline (and on the same machine) as
	// the benchmark process, so its own core count is the machine's; its
	// GOMAXPROCS is not the benchmarks' when they ran with -cpu.
	rep := &Report{NumCPU: runtime.NumCPU()}
	type key struct {
		pkg, name string
		procs     int
	}
	var order []key
	runs := make(map[key][]Benchmark)
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseLine(line)
			if !ok {
				continue
			}
			b.Pkg = pkg
			k := key{b.Pkg, b.Name, b.Procs}
			if runs[k] == nil {
				order = append(order, k)
			}
			runs[k] = append(runs[k], b)
			rep.MaxProcs = max(rep.MaxProcs, b.Procs)
		}
	}
	for _, k := range order {
		rep.Benchmarks = append(rep.Benchmarks, fold(runs[k]))
	}
	return rep, sc.Err()
}

// fold merges repeated runs of one benchmark into one entry: the median
// iteration count and, per unit, the median over the runs that report
// it.
func fold(runs []Benchmark) Benchmark {
	if len(runs) == 1 {
		return runs[0]
	}
	b := runs[0]
	b.Metrics = make(map[string]float64, len(runs[0].Metrics))
	iters := make([]float64, len(runs))
	for i := range runs {
		iters[i] = float64(runs[i].Iterations)
		for unit := range runs[i].Metrics {
			if _, done := b.Metrics[unit]; done {
				continue
			}
			var vs []float64
			for j := range runs {
				if v, ok := runs[j].Metrics[unit]; ok {
					vs = append(vs, v)
				}
			}
			b.Metrics[unit] = median(vs)
		}
	}
	b.Iterations = int64(median(iters))
	return b
}

// median returns the middle value of vs (the mean of the two middle
// values for an even count); it sorts vs in place.
func median(vs []float64) float64 {
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// parseLine parses one result line:
//
//	BenchmarkName-8   	    183	   6321207 ns/op	 2152865 B/op	  2.5 scenarios/s
func parseLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Benchmark{}, false
	}
	b := Benchmark{Name: f[0], Procs: 1, Metrics: make(map[string]float64, (len(f)-2)/2)}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], p
		}
	}
	n, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = n
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[f[i+1]] = v
	}
	return b, true
}

// loadReport reads a committed snapshot back for gating.
func loadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// find returns the first benchmark with the given name.
func (r *Report) find(name string) *Benchmark {
	for i := range r.Benchmarks {
		if r.Benchmarks[i].Name == name {
			return &r.Benchmarks[i]
		}
	}
	return nil
}

// workUnits are the host-independent work counts a benchmark may
// report per op: the interior-point iterations of a decide and its QPs
// that ended at their iteration cap. They are exact, so Gate allows no
// rise in them, where ns/op gets a tolerance for host noise.
var workUnits = []string{"qpiters/op", "capped/op"}

// Gate compares the named benchmark between a fresh report and a
// committed baseline. It returns an error when the benchmark is missing
// from either report, when a work count the baseline records (workUnits)
// is missing from the fresh result or above the baseline's, or when the
// fresh time exceeds baseline·(1+tol) — the CI regression gate for the
// MPC solve path. On success it returns a one-line summary of the
// comparison.
func Gate(fresh, baseline *Report, name string, tol float64) (string, error) {
	fb := fresh.find(name)
	if fb == nil {
		return "", fmt.Errorf("gate: %s missing from fresh results", name)
	}
	bb := baseline.find(name)
	if bb == nil {
		return "", fmt.Errorf("gate: %s missing from baseline", name)
	}
	for _, u := range workUnits {
		bv, ok := bb.Metrics[u]
		if !ok {
			continue
		}
		fv, ok := fb.Metrics[u]
		if !ok {
			return "", fmt.Errorf("gate: %s has no %s in fresh results", name, u)
		}
		if fv > bv {
			return "", fmt.Errorf("gate: %s does more work: %g %s vs baseline %g", name, fv, u, bv)
		}
	}
	fNS, ok := fb.Metrics["ns/op"]
	if !ok || fNS <= 0 {
		return "", fmt.Errorf("gate: %s has no ns/op in fresh results", name)
	}
	bNS, ok := bb.Metrics["ns/op"]
	if !ok || bNS <= 0 {
		return "", fmt.Errorf("gate: %s has no ns/op in baseline", name)
	}
	ratio := fNS / bNS
	if ratio > 1+tol {
		return "", fmt.Errorf("gate: %s regressed %.1f%%: %.0f ns/op vs baseline %.0f ns/op (tolerance %.0f%%)",
			name, (ratio-1)*100, fNS, bNS, tol*100)
	}
	return fmt.Sprintf("gate: %s ok: %.0f ns/op vs baseline %.0f ns/op (%+.1f%%, tolerance %.0f%%)",
		name, fNS, bNS, (ratio-1)*100, tol*100), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
