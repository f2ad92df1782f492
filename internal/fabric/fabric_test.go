package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"testing"
	"time"

	"evclimate/internal/runner"
	"evclimate/internal/telemetry"
)

// gridBuilder is the test sweep: a 2 cycles × 2 envs × 2 controllers
// grid (8 cheap jobs), parameterized by seed and profile truncation the
// way a real distributable experiment would be.
func gridBuilder(params map[string]string) (runner.Spec, error) {
	seed, err := strconv.ParseInt(params["seed"], 10, 64)
	if err != nil {
		return runner.Spec{}, fmt.Errorf("fabric test: bad seed param: %w", err)
	}
	maxS, err := strconv.ParseFloat(params["max_s"], 64)
	if err != nil {
		return runner.Spec{}, fmt.Errorf("fabric test: bad max_s param: %w", err)
	}
	return runner.Spec{
		Controllers: []runner.ControllerSpec{runner.OnOffSpec(1), runner.FuzzySpec(1)},
		Cycles:      []runner.CycleSpec{{Name: "ECE15"}, {Name: "UDDS"}},
		Envs:        []runner.Env{{AmbientC: 35, SolarW: 400}, {AmbientC: 0}},
		MaxProfileS: maxS,
		BaseSeed:    seed,
	}, nil
}

var gridParams = map[string]string{"seed": "42", "max_s": "120"}

func testSpecs(t *testing.T) *Registry {
	t.Helper()
	specs := NewSpecRegistry()
	specs.Register("grid", gridBuilder)
	return specs
}

func mustSpec(t *testing.T) runner.Spec {
	t.Helper()
	spec, err := gridBuilder(gridParams)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestShardUnitsPartition(t *testing.T) {
	spec := mustSpec(t)
	jobs, err := runner.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	units := shardUnits(runner.Fingerprints(jobs), 3)
	seen := make(map[int]int)
	for u, idxs := range units {
		if len(idxs) == 0 {
			t.Errorf("unit %d empty", u)
		}
		for k := 1; k < len(idxs); k++ {
			if idxs[k-1] >= idxs[k] {
				t.Errorf("unit %d not sorted: %v", u, idxs)
			}
		}
		for _, i := range idxs {
			seen[i]++
		}
	}
	if len(seen) != len(jobs) {
		t.Errorf("sharding covered %d of %d jobs", len(seen), len(jobs))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("job %d sharded %d times", i, n)
		}
	}
	// Content-addressed: a second expansion shards identically.
	again := shardUnits(runner.Fingerprints(jobs), 3)
	if fmt.Sprint(units) != fmt.Sprint(again) {
		t.Errorf("sharding not deterministic:\n%v\nvs\n%v", units, again)
	}
	// One giant unit still covers everything.
	if one := shardUnits(runner.Fingerprints(jobs), 1000); len(one) != 1 || len(one[0]) != len(jobs) {
		t.Errorf("oversized unitSize: %v", one)
	}
}

// artifacts are the byte-exact outputs the determinism contract covers.
type artifacts struct {
	metrics  []byte // deterministic metric snapshot, JSON
	trace    []byte // stitched step spans, JSONL without timing
	manifest []byte // finalized manifest (resume lineage stripped)
	results  []byte // per-job results, JSON
}

// collect freezes one run's artifacts. Resume lineage is stripped
// before comparison: it is the only section a resumed run may differ
// in (the manifest contract from the durability PR).
func collect(t *testing.T, reg *telemetry.Registry, tl *telemetry.TraceLog, man *telemetry.Manifest, sw *runner.Sweep) artifacts {
	t.Helper()
	var a artifacts
	var err error
	snap := reg.Snapshot(telemetry.DeterministicFilter)
	if a.metrics, err = json.Marshal(snap); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tl.WriteJSONL(&buf, false); err != nil {
		t.Fatal(err)
	}
	a.trace = buf.Bytes()
	man.Finalize("test", snap)
	man.Resume = nil
	if a.manifest, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	type rj struct {
		Index    int             `json:"index"`
		Err      string          `json:"err,omitempty"`
		Attempts int             `json:"attempts"`
		Result   json.RawMessage `json:"result,omitempty"`
	}
	rows := make([]rj, len(sw.Jobs))
	for i := range sw.Jobs {
		jr := &sw.Jobs[i]
		rows[i] = rj{Index: jr.Job.Index, Attempts: jr.Attempts}
		if jr.Err != nil {
			rows[i].Err = jr.Err.Error()
		}
		if jr.Result != nil {
			res, err := json.Marshal(jr.Result)
			if err != nil {
				t.Fatal(err)
			}
			rows[i].Result = res
		}
	}
	if a.results, err = json.Marshal(rows); err != nil {
		t.Fatal(err)
	}
	return a
}

// runFabric executes the grid sweep through a loopback coordinator with
// n in-process workers and returns the stitched artifacts.
func runFabric(t *testing.T, label string, n int) artifacts {
	t.Helper()
	return runFabricWith(t, CoordinatorConfig{Label: label}, n)
}

// runFabricWith runs the grid sweep under cfg (the grid spec, unit
// size, lease TTL, artifact sinks and build stamp filled in) with n
// in-process workers, and returns the stitched artifacts.
func runFabricWith(t *testing.T, cfg CoordinatorConfig, n int) artifacts {
	t.Helper()
	reg := telemetry.NewRegistry()
	tl := &telemetry.TraceLog{}
	man := telemetry.NewManifest("evbench")
	cfg.Spec, cfg.SpecName, cfg.Params = mustSpec(t), "grid", gridParams
	cfg.UnitSize, cfg.LeaseTTL, cfg.Git = 2, 2*time.Second, "test"
	cfg.Telemetry, cfg.TraceLog, cfg.Manifest = reg, tl, man
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	specs := testSpecs(t)
	errc := make(chan error, n)
	for w := 0; w < n; w++ {
		go func(w int) {
			wk := NewWorker(WorkerConfig{
				URL:     "http://" + coord.Addr,
				ID:      fmt.Sprintf("w%d", w),
				Specs:   specs,
				Workers: 2,
				Connect: runner.RetryPolicy{BaseBackoff: 20 * time.Millisecond, MaxBackoff: 200 * time.Millisecond},
				Git:     "test",
			})
			_, err := wk.Run(ctx)
			errc <- err
		}(w)
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatalf("coordinator wait: %v (progress %+v)", err, coord.Snapshot())
	}
	for w := 0; w < n; w++ {
		if err := <-errc; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	sw, err := coord.Stitch()
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.FirstErr(); err != nil {
		t.Fatal(err)
	}
	return collect(t, reg, tl, man, sw)
}

// TestFabricTopologyDeterminism extends the runner's worker-count
// determinism proof across process topologies: the stitched metrics,
// traces, manifest, and per-job results of a fabric run must be
// byte-identical to the single-process run, at any worker count.
func TestFabricTopologyDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates real cycles")
	}
	label := "fabric-grid"
	reg := telemetry.NewRegistry()
	tl := &telemetry.TraceLog{}
	man := telemetry.NewManifest("evbench")
	sw, err := runner.Run(context.Background(), mustSpec(t), runner.Options{
		Workers: 4, Telemetry: reg, TraceLog: tl, Manifest: man, ManifestLabel: label,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.FirstErr(); err != nil {
		t.Fatal(err)
	}
	ref := collect(t, reg, tl, man, sw)

	for _, workers := range []int{1, 3} {
		got := runFabric(t, label, workers)
		for _, cmp := range []struct {
			name     string
			got, ref []byte
		}{
			{"metrics", got.metrics, ref.metrics},
			{"trace", got.trace, ref.trace},
			{"manifest", got.manifest, ref.manifest},
			{"results", got.results, ref.results},
		} {
			if !bytes.Equal(cmp.got, cmp.ref) {
				t.Errorf("%d workers: %s differs from single-process run\nfabric: %.400s\nref:    %.400s",
					workers, cmp.name, cmp.got, cmp.ref)
			}
		}
	}
}

// TestWorkerSpecMismatchRefused: a worker whose local expansion hashes
// differently (a different profile length here — a drifted binary in
// production) must be refused before it simulates anything.
func TestWorkerSpecMismatchRefused(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{
		Spec: mustSpec(t), SpecName: "grid", Params: gridParams,
		Label: "mismatch", Git: "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// A registry whose "grid" spec ignores the wire params' max_s.
	specs := NewSpecRegistry()
	specs.Register("grid", func(params map[string]string) (runner.Spec, error) {
		p := map[string]string{"seed": params["seed"], "max_s": "150"}
		return gridBuilder(p)
	})
	wk := NewWorker(WorkerConfig{
		URL: "http://" + coord.Addr, ID: "drifted", Specs: specs, Git: "test",
		Connect: runner.RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := wk.Run(ctx); !errorsIsSpecMismatch(err) {
		t.Fatalf("drifted worker joined: %v", err)
	}
	// A worker from a different build is refused too.
	wk2 := NewWorker(WorkerConfig{
		URL: "http://" + coord.Addr, ID: "otherbuild", Specs: testSpecs(t), Git: "other",
		Connect: runner.RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	})
	if _, err := wk2.Run(ctx); !errorsIsSpecMismatch(err) {
		t.Fatalf("mismatched build joined: %v", err)
	}
}

func errorsIsSpecMismatch(err error) bool {
	return errors.Is(err, ErrSpecMismatch)
}

// TestLeaseExpiryQuarantine drives the poisoned-unit path with raw
// protocol calls: two distinct workers lease the single unit and
// vanish; their leases expire, the unit quarantines, the sweep
// completes, and every job reports ErrUnitQuarantined.
func TestLeaseExpiryQuarantine(t *testing.T) {
	reg := telemetry.NewRegistry()
	coord, err := NewCoordinator(CoordinatorConfig{
		Spec: mustSpec(t), SpecName: "grid", Params: gridParams,
		Label:           "quarantine",
		UnitSize:        1000, // one unit holds the whole sweep
		LeaseTTL:        60 * time.Millisecond,
		QuarantineAfter: 2,
		Reclaim:         runner.RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
		Telemetry:       reg,
		Git:             "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	lease := func(worker string) LeaseReply {
		t.Helper()
		body, _ := json.Marshal(LeaseRequest{Worker: worker, SweepFingerprint: coord.fp})
		resp, err := http.Post("http://"+coord.Addr+"/lease", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rep LeaseReply
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	// Worker "a" takes the unit and dies.
	deadline := time.Now().Add(10 * time.Second)
	if rep := lease("a"); rep.Lease == 0 {
		t.Fatalf("no lease granted: %+v", rep)
	}
	// Worker "b" polls until the reclaimed unit is re-leased, then dies too.
	for {
		rep := lease("b")
		if rep.Lease != 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("unit never reclaimed: %+v", coord.Snapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.Wait(ctx); err != nil {
		t.Fatalf("sweep never quarantined: %v (%+v)", err, coord.Snapshot())
	}
	p := coord.Snapshot()
	if p.UnitsQuarantined != 1 || !p.Done {
		t.Fatalf("progress = %+v, want 1 quarantined unit, done", p)
	}
	sw, err := coord.Stitch()
	if err != nil {
		t.Fatal(err)
	}
	for i := range sw.Jobs {
		if !errors.Is(sw.Jobs[i].Err, ErrUnitQuarantined) {
			t.Fatalf("job %d err = %v, want ErrUnitQuarantined", i, sw.Jobs[i].Err)
		}
	}
	if got := reg.Counter("fabric_units_quarantined_total").Value(); got != 1 {
		t.Errorf("fabric_units_quarantined_total = %v, want 1", got)
	}
	// A third worker asking for work is told the sweep is done.
	if rep := lease("c"); !rep.Done {
		t.Errorf("post-quarantine lease = %+v, want Done", rep)
	}
}

// TestCacheEndpointSharesResults: a coordinator with a shared cache
// serves every collected result over /cache, and a joining worker's
// primed cache turns repeat fingerprints into hits.
func TestCacheEndpointSharesResults(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates real cycles")
	}
	cache := runner.NewCache()
	reg := telemetry.NewRegistry()
	coord, err := NewCoordinator(CoordinatorConfig{
		Spec: mustSpec(t), SpecName: "grid", Params: gridParams,
		Label: "cache", UnitSize: 2, LeaseTTL: 2 * time.Second,
		Telemetry: reg, Cache: cache, Git: "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	wk := NewWorker(WorkerConfig{
		URL: "http://" + coord.Addr, ID: "w0", Specs: testSpecs(t), Workers: 2, Git: "test",
		Connect: runner.RetryPolicy{BaseBackoff: 20 * time.Millisecond, MaxBackoff: 200 * time.Millisecond},
	})
	if _, err := wk.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, entries := cache.Stats(); entries != 8 {
		t.Fatalf("coordinator cache holds %d entries, want 8", entries)
	}
	// A late worker priming from /cache inherits all eight results.
	late := runner.NewCache()
	wk2 := NewWorker(WorkerConfig{
		URL: "http://" + coord.Addr, ID: "w1", Specs: testSpecs(t), Cache: late, Git: "test",
		Connect: runner.RetryPolicy{BaseBackoff: 20 * time.Millisecond, MaxBackoff: 200 * time.Millisecond},
	})
	if _, err := wk2.Run(ctx); err != nil { // sweep already done; join still primes
		t.Fatal(err)
	}
	if _, _, entries := late.Stats(); entries != 8 {
		t.Fatalf("late worker cache holds %d entries, want 8", entries)
	}
}
