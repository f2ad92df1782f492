package runner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"evclimate/internal/cabin"
	"evclimate/internal/control"
	"evclimate/internal/drivecycle"
	"evclimate/internal/geodata"
	"evclimate/internal/sim"
)

// quickSpec is a cheap 2×2×2 grid (8 jobs, baselines only) used by most
// tests: two short cycles, two ambients, On/Off + fuzzy.
func quickSpec() Spec {
	return Spec{
		Controllers: []ControllerSpec{OnOffSpec(1), FuzzySpec(1)},
		Cycles:      []CycleSpec{{Name: "ECE15"}, {Name: "UDDS"}},
		Envs:        []Env{{AmbientC: 35, SolarW: 400}, {AmbientC: 0}},
		MaxProfileS: 150,
		BaseSeed:    42,
	}
}

func TestExpandOrderStable(t *testing.T) {
	jobs, err := Expand(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 8 {
		t.Fatalf("jobs = %d, want 8", len(jobs))
	}
	// Cycles outermost, envs next, controllers innermost.
	want := []struct {
		cycle   string
		ambient float64
		ctrl    string
	}{
		{"ECE15", 35, "On/Off"}, {"ECE15", 35, "Fuzzy-based"},
		{"ECE15", 0, "On/Off"}, {"ECE15", 0, "Fuzzy-based"},
		{"UDDS", 35, "On/Off"}, {"UDDS", 35, "Fuzzy-based"},
		{"UDDS", 0, "On/Off"}, {"UDDS", 0, "Fuzzy-based"},
	}
	for i, w := range want {
		j := jobs[i]
		if j.Index != i {
			t.Errorf("job %d: index %d", i, j.Index)
		}
		if j.Cycle != w.cycle || j.Env.AmbientC != w.ambient || j.Controller.Label != w.ctrl {
			t.Errorf("job %d = (%s, %v, %s), want (%s, %v, %s)",
				i, j.Cycle, j.Env.AmbientC, j.Controller.Label, w.cycle, w.ambient, w.ctrl)
		}
		if j.Config.Profile == nil || j.Config.Profile.Duration() > 150 {
			t.Errorf("job %d: profile not prepared/truncated", i)
		}
		if j.Config.Profile.Samples[0].AmbientC != w.ambient {
			t.Errorf("job %d: ambient %v not applied", i, w.ambient)
		}
	}
	// Identical specs expand identically (replay).
	again, err := Expand(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Seed != again[i].Seed {
			t.Errorf("job %d: seed not reproducible: %d vs %d", i, jobs[i].Seed, again[i].Seed)
		}
	}
	// Seeds are pairwise distinct.
	seen := map[int64]int{}
	for i, j := range jobs {
		if prev, dup := seen[j.Seed]; dup {
			t.Errorf("jobs %d and %d share seed %d", prev, i, j.Seed)
		}
		seen[j.Seed] = i
	}
}

func TestExpandErrors(t *testing.T) {
	if _, err := Expand(Spec{Cycles: []CycleSpec{{Name: "ECE15"}}}); err == nil {
		t.Error("no controllers: want error")
	}
	if _, err := Expand(Spec{Controllers: []ControllerSpec{OnOffSpec(1)}}); err == nil {
		t.Error("no cycles: want error")
	}
	spec := Spec{Controllers: []ControllerSpec{OnOffSpec(1)}, Cycles: []CycleSpec{{Name: "NOPE"}}}
	if _, err := Expand(spec); err == nil {
		t.Error("unknown cycle: want error")
	}
	spec.Cycles = []CycleSpec{{}}
	if _, err := Expand(spec); err == nil {
		t.Error("empty cycle spec: want error")
	}
}

// identicalResults asserts two results are bit-identical, traces included.
func identicalResults(t *testing.T, tag string, a, b *sim.Result) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("%s: nil result (%v, %v)", tag, a, b)
	}
	scalar := func(name string, x, y float64) {
		if math.Float64bits(x) != math.Float64bits(y) {
			t.Errorf("%s: %s differs: %v vs %v", tag, name, x, y)
		}
	}
	scalar("AvgHVACW", a.AvgHVACW, b.AvgHVACW)
	scalar("AvgTotalW", a.AvgTotalW, b.AvgTotalW)
	scalar("DeltaSoH", a.DeltaSoH, b.DeltaSoH)
	scalar("SoCDev", a.SoCDev, b.SoCDev)
	scalar("FinalSoC", a.FinalSoC, b.FinalSoC)
	scalar("ComfortViolationFrac", a.ComfortViolationFrac, b.ComfortViolationFrac)
	scalar("RMSTrackingErrC", a.RMSTrackingErrC, b.RMSTrackingErrC)
	traces := [][2][]float64{
		{a.Trace.Time, b.Trace.Time}, {a.Trace.CabinC, b.Trace.CabinC},
		{a.Trace.HVACW, b.Trace.HVACW}, {a.Trace.TotalW, b.Trace.TotalW},
		{a.Trace.SoC, b.Trace.SoC},
	}
	for ti, pair := range traces {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s: trace %d length %d vs %d", tag, ti, len(pair[0]), len(pair[1]))
		}
		for i := range pair[0] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				t.Fatalf("%s: trace %d diverges at step %d: %v vs %v",
					tag, ti, i, pair[0][i], pair[1][i])
			}
		}
	}
}

// TestParallelMatchesSequential is the determinism proof for the sweep
// engine: the same spec run with one worker and with many workers must be
// element-wise bit-identical.
func TestParallelMatchesSequential(t *testing.T) {
	seq, err := Run(context.Background(), quickSpec(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.FirstErr(); err != nil {
		t.Fatal(err)
	}
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4 // oversubscribe to force interleaving even on small boxes
	}
	par, err := Run(context.Background(), quickSpec(), Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if err := par.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if len(seq.Jobs) != len(par.Jobs) {
		t.Fatalf("job counts differ: %d vs %d", len(seq.Jobs), len(par.Jobs))
	}
	for i := range seq.Jobs {
		tag := fmt.Sprintf("job %d (%s on %s)", i, seq.Jobs[i].Job.Controller.Label, seq.Jobs[i].Job.Cycle)
		if par.Jobs[i].Job.Index != i {
			t.Errorf("%s: parallel output out of order", tag)
		}
		identicalResults(t, tag, seq.Jobs[i].Result, par.Jobs[i].Result)
	}
}

// panicController diverges on purpose partway through a run.
type panicController struct{ steps int }

func (c *panicController) Name() string { return "panicky" }
func (c *panicController) Reset()       { c.steps = 0 }
func (c *panicController) Decide(control.StepContext) cabin.Inputs {
	c.steps++
	if c.steps > 3 {
		panic("scenario diverged")
	}
	return cabin.Inputs{AirFlowKgS: 0.05, SupplyTempC: 20, CoilTempC: 20}
}

func TestPanicCaptured(t *testing.T) {
	spec := quickSpec()
	spec.Controllers = []ControllerSpec{
		OnOffSpec(1),
		{Label: "panicky", New: func() (control.Controller, error) { return &panicController{}, nil }},
	}
	spec.Cycles = spec.Cycles[:1]
	spec.Envs = spec.Envs[:1]
	sw, err := Run(context.Background(), spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Jobs[0].Err != nil || sw.Jobs[0].Result == nil {
		t.Errorf("healthy job infected: %+v", sw.Jobs[0].Err)
	}
	if sw.Jobs[1].Err == nil || !strings.Contains(sw.Jobs[1].Err.Error(), "panicked") {
		t.Errorf("panic not captured: %v", sw.Jobs[1].Err)
	}
	if err := sw.FirstErr(); err == nil || !strings.Contains(err.Error(), "panicky") {
		t.Errorf("FirstErr = %v, want the panicking job", err)
	}
}

func TestConstructorErrorIsolated(t *testing.T) {
	spec := quickSpec()
	boom := errors.New("boom")
	spec.Controllers = []ControllerSpec{
		{Label: "broken", New: func() (control.Controller, error) { return nil, boom }},
		OnOffSpec(1),
	}
	spec.Cycles = spec.Cycles[:1]
	spec.Envs = spec.Envs[:1]
	sw, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(sw.Jobs[0].Err, boom) {
		t.Errorf("constructor error lost: %v", sw.Jobs[0].Err)
	}
	if sw.Jobs[1].Err != nil {
		t.Errorf("sibling job failed: %v", sw.Jobs[1].Err)
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before dispatch: nothing should run
	sw, err := Run(ctx, quickSpec(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ranAny := false
	for i := range sw.Jobs {
		if sw.Jobs[i].Result != nil {
			ranAny = true
		} else if !errors.Is(sw.Jobs[i].Err, context.Canceled) {
			t.Errorf("job %d: err = %v, want context.Canceled", i, sw.Jobs[i].Err)
		}
	}
	if ranAny {
		t.Log("some jobs raced ahead of cancellation (allowed)")
	}
}

func TestCells(t *testing.T) {
	sw, err := Run(context.Background(), quickSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cells := sw.Cells()
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	for _, cell := range cells {
		if len(cell) != 2 {
			t.Fatalf("cell size = %d, want 2", len(cell))
		}
		m := CellMap(cell)
		if m["On/Off"] == nil || m["Fuzzy-based"] == nil {
			t.Errorf("cell map incomplete: %v", m)
		}
		if cell[0].Job.Cycle != cell[1].Job.Cycle || cell[0].Job.Env != cell[1].Job.Env {
			t.Errorf("cell mixes scenarios: %+v vs %+v", cell[0].Job, cell[1].Job)
		}
	}
}

func TestCacheHitsAndInvalidation(t *testing.T) {
	cache := NewCache()
	spec := quickSpec()
	spec.Cycles = spec.Cycles[:1]

	first, err := Run(context.Background(), spec, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if err := first.FirstErr(); err != nil {
		t.Fatal(err)
	}
	for i := range first.Jobs {
		if first.Jobs[i].Cached {
			t.Errorf("job %d cached on first run", i)
		}
	}

	second, err := Run(context.Background(), spec, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i := range second.Jobs {
		if !second.Jobs[i].Cached {
			t.Errorf("job %d not cached on identical re-run", i)
		}
		if second.Jobs[i].Result != first.Jobs[i].Result {
			t.Errorf("job %d: cache returned a different result pointer", i)
		}
	}
	hits, _, entries := cache.Stats()
	if hits != len(spec.Controllers)*2 || entries != len(spec.Controllers)*2 {
		t.Errorf("cache stats: hits %d entries %d", hits, entries)
	}

	// Any scenario change must invalidate the cell.
	changed := spec
	changed.Envs = []Env{{AmbientC: 36, SolarW: 400}, {AmbientC: 0}}
	third, err := Run(context.Background(), changed, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if third.Jobs[0].Cached {
		t.Error("changed ambient still hit the cache")
	}
	if !third.Jobs[2].Cached {
		t.Error("unchanged cold cell missed the cache")
	}
}

func TestGenProfileSharedWithinCycle(t *testing.T) {
	var mu sync.Mutex
	genSeeds := []int64{}
	spec := quickSpec()
	spec.Cycles = []CycleSpec{{
		Label: "gen",
		Gen: func(seed int64) (*drivecycle.Profile, error) {
			mu.Lock()
			genSeeds = append(genSeeds, seed)
			mu.Unlock()
			c, err := drivecycle.ByName("ECE15")
			if err != nil {
				return nil, err
			}
			return c.Profile(1), nil
		},
	}}
	jobs, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(genSeeds) != 1 {
		t.Fatalf("Gen called %d times, want once per cycle", len(genSeeds))
	}
	// Every job of the cycle shares the same generated base; the env
	// application clones it, but within one env the profile pointer is
	// shared read-only across controllers.
	if jobs[0].Config.Profile != jobs[1].Config.Profile {
		t.Error("controllers of one cell do not share the generated profile")
	}
	// Replay derives the same cycle seed.
	genSeeds = genSeeds[:0]
	if _, err := Expand(spec); err != nil {
		t.Fatal(err)
	}
	if len(genSeeds) != 1 {
		t.Fatalf("Gen called %d times on replay", len(genSeeds))
	}
}

// fleetLikeSpec is a small fleet grid: two generated commutes, three
// climate cells, two targets and both baselines, so each profile is
// shared by the four jobs of its cell.
func fleetLikeSpec() Spec {
	commute := func(name string, wps []geodata.Waypoint) CycleSpec {
		return CycleSpec{Label: name, Gen: func(seed int64) (*drivecycle.Profile, error) {
			planner := &geodata.Planner{Terrain: &geodata.Terrain{Seed: seed, ReliefM: 20}}
			route, err := planner.Plan(name, wps, 7, 8)
			if err != nil {
				return nil, err
			}
			return route.Profile(1)
		}}
	}
	return Spec{
		Controllers: []ControllerSpec{OnOffSpec(1), FuzzySpec(1)},
		Cycles: []CycleSpec{
			commute("commute-0", []geodata.Waypoint{{LengthKm: 2, FreeFlowKmh: 60, Stop: true}, {LengthKm: 3, FreeFlowKmh: 80}}),
			commute("commute-1", []geodata.Waypoint{{LengthKm: 4, FreeFlowKmh: 110}}),
		},
		Envs:        []Env{{AmbientC: -5}, {AmbientC: 21, SolarW: 200}, {AmbientC: 38, SolarW: 600}},
		Targets:     []float64{22, 24},
		MaxProfileS: 300,
		BaseSeed:    5,
	}
}

// TestFingerprintsMatchJob: Fingerprints, which digests each shared
// profile once on GOMAXPROCS goroutines, keys every job of a fleet
// expansion exactly as Job.Fingerprint does at any GOMAXPROCS, and the
// key follows a profile's contents, not its address: equal contents
// behind two pointers key alike, and one changed SlopePercent sample
// changes the key.
func TestFingerprintsMatchJob(t *testing.T) {
	jobs, err := Expand(fleetLikeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 24 {
		t.Fatalf("expanded to %d jobs, want 24", len(jobs))
	}
	var fps []uint64
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		fps = Fingerprints(jobs)
		runtime.GOMAXPROCS(prev)
		seen := map[uint64]bool{}
		for i := range jobs {
			if want := jobs[i].Fingerprint(); fps[i] != want {
				t.Errorf("GOMAXPROCS %d, job %d: Fingerprints %016x, Fingerprint %016x", procs, i, fps[i], want)
			}
			seen[fps[i]] = true
		}
		if len(seen) != len(jobs) {
			t.Errorf("GOMAXPROCS %d: %d distinct fingerprints for %d distinct jobs", procs, len(seen), len(jobs))
		}
	}

	clone := func(p *drivecycle.Profile) *drivecycle.Profile {
		q := *p
		q.Samples = append([]drivecycle.Sample(nil), p.Samples...)
		return &q
	}
	same, sloped := jobs[0], jobs[0]
	same.Config.Profile = clone(jobs[0].Config.Profile)
	sloped.Config.Profile = clone(jobs[0].Config.Profile)
	sloped.Config.Profile.Samples[len(sloped.Config.Profile.Samples)/2].SlopePercent += 0.5
	got := Fingerprints([]Job{jobs[0], same, sloped})
	if got[1] != fps[0] || same.Fingerprint() != fps[0] {
		t.Errorf("equal profile at another pointer: %016x, %016x; want %016x", got[1], same.Fingerprint(), fps[0])
	}
	if got[2] == fps[0] || sloped.Fingerprint() == fps[0] {
		t.Error("a changed SlopePercent sample left the fingerprint unchanged")
	}
	if got[2] != sloped.Fingerprint() {
		t.Errorf("changed profile: Fingerprints %016x, Fingerprint %016x", got[2], sloped.Fingerprint())
	}
}
