package fabric

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"evclimate/internal/netchaos"
	"evclimate/internal/runner"
	"evclimate/internal/telemetry"
)

// chaosScenario is one cell of the network-chaos matrix: a seeded fault
// schedule per worker, the transport knobs under test, and what must
// have happened for the scenario to count as exercised.
type chaosScenario struct {
	name string
	// schedules faults worker w's transport (len = worker count).
	schedules []netchaos.Schedule
	// spill runs the coordinator on the disk-spilling record store.
	spill bool
	// callTimeout overrides the workers' per-request deadline.
	callTimeout time.Duration
	// wantFaults must each have fired on at least one worker.
	wantFaults []netchaos.Fault
	// wantCounter, when set, is a coordinator counter that must be > 0.
	wantCounter string
	// corruptStatus, when set, is the status the coordinator must answer
	// every corrupted /complete with — one such answer per injected
	// CorruptRequest fault.
	corruptStatus int
}

// statusLog is a RoundTripper under the fault layer that counts the
// coordinator's answers per path and status code.
type statusLog struct {
	mu     sync.Mutex
	counts map[string]map[int]int
}

func (l *statusLog) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		l.mu.Lock()
		if l.counts == nil {
			l.counts = make(map[string]map[int]int)
		}
		if l.counts[req.URL.Path] == nil {
			l.counts[req.URL.Path] = make(map[int]int)
		}
		l.counts[req.URL.Path][resp.StatusCode]++
		l.mu.Unlock()
	}
	return resp, err
}

func (l *statusLog) count(path string, status int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[path][status]
}

// runChaosFabric executes the grid sweep with per-worker fault
// transports and returns the stitched artifacts plus the coordinator's
// registry for counter assertions.
func runChaosFabric(t *testing.T, label string, sc *chaosScenario) (artifacts, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	tl := &telemetry.TraceLog{}
	man := telemetry.NewManifest("evbench")
	cfg := CoordinatorConfig{
		Spec:      mustSpec(t),
		SpecName:  "grid",
		Params:    gridParams,
		Label:     label,
		UnitSize:  2,
		LeaseTTL:  2 * time.Second,
		Reclaim:   runner.RetryPolicy{BaseBackoff: 20 * time.Millisecond, MaxBackoff: 200 * time.Millisecond},
		Telemetry: reg,
		TraceLog:  tl,
		Manifest:  man,
		Git:       "test",
	}
	if sc.spill {
		cfg.Spill = &SpillConfig{Dir: t.TempDir(), SegmentBytes: 8 << 10}
	}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	specs := testSpecs(t)
	n := len(sc.schedules)
	transports := make([]*netchaos.Transport, n)
	answers := &statusLog{}
	errc := make(chan error, n)
	for w := 0; w < n; w++ {
		transports[w] = netchaos.NewTransport(sc.schedules[w], answers)
		go func(w int) {
			wk := NewWorker(WorkerConfig{
				URL:         "http://" + coord.Addr,
				ID:          fmt.Sprintf("w%d", w),
				Specs:       specs,
				Workers:     2,
				Transport:   transports[w],
				CallTimeout: sc.callTimeout,
				Connect:     runner.RetryPolicy{BaseBackoff: 20 * time.Millisecond, MaxBackoff: 200 * time.Millisecond},
				Git:         "test",
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
	for _, want := range sc.wantFaults {
		fired := 0
		for _, tr := range transports {
			fired += tr.Injected()[want]
		}
		if fired == 0 {
			t.Errorf("scenario %s: fault %v never fired — the pathology was not exercised", sc.name, want)
		}
	}
	if sc.wantCounter != "" {
		if got := reg.Counter(sc.wantCounter).Value(); got <= 0 {
			t.Errorf("scenario %s: %s = %v, want > 0", sc.name, sc.wantCounter, got)
		}
	}
	if sc.corruptStatus != 0 {
		fired := 0
		for _, tr := range transports {
			fired += tr.Injected()[netchaos.CorruptRequest]
		}
		if got := answers.count("/complete", sc.corruptStatus); got != fired {
			t.Errorf("scenario %s: %d /complete answers with status %d for %d corrupted requests (all answers: %v)",
				sc.name, got, sc.corruptStatus, fired, answers.counts["/complete"])
		}
	}
	sw, err := coord.Stitch()
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.FirstErr(); err != nil {
		t.Fatal(err)
	}
	return collect(t, reg, tl, man, sw), reg
}

// TestNetChaosMatrix drives the fabric through seeded network-fault
// schedules — flaky links, torn completion responses, corrupted
// payloads, duplicated deliveries, and a black-holed partition — and
// requires the stitched metrics, trace, manifest, and per-job results
// to stay byte-identical to a single-process run of the same spec.
// Every schedule is deterministic (netchaos's splitmix64 draws), so a
// failing cell replays exactly.
func TestNetChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates real cycles")
	}
	label := "fabric-netchaos"
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

	scenarios := []chaosScenario{
		{
			// A flaky link: random latency on every path, plus a
			// guaranteed connection reset on the first lease call. The
			// spill store runs underneath to prove fault recovery
			// composes with it.
			name:  "flaky-link",
			spill: true,
			schedules: []netchaos.Schedule{
				{Seed: 101, Rules: []netchaos.Rule{
					{Fault: netchaos.Reset, Path: "/lease", Rate: 1, From: 0, To: 1},
					{Fault: netchaos.Latency, Rate: 0.4, Delay: 25 * time.Millisecond},
				}},
				{Seed: 102, Rules: []netchaos.Rule{
					{Fault: netchaos.Latency, Rate: 0.4, Delay: 25 * time.Millisecond},
				}},
			},
			wantFaults: []netchaos.Fault{netchaos.Reset, netchaos.Latency},
		},
		{
			// A torn /complete response: the coordinator processed the
			// records but the worker never learns; the retried delivery
			// must replay from the idempotency cache, not re-count.
			name: "torn-complete-response",
			schedules: []netchaos.Schedule{
				{Seed: 201, Rules: []netchaos.Rule{
					{Fault: netchaos.TornBody, Path: "/complete", Rate: 1, From: 0, To: 1, KeepBytes: 3},
				}},
				{Seed: 202},
			},
			wantFaults:  []netchaos.Fault{netchaos.TornBody},
			wantCounter: "fabric_complete_replayed_total",
		},
		{
			// A corrupted /complete payload: one flipped byte in transit,
			// on each worker's first completion, so the fault fires
			// whichever worker completes. The flip mostly lands in a
			// packed trace string: the coordinator answers 422 whether
			// the body fails to decode or the record checksum no longer
			// matches, and the intact retry lands.
			name: "corrupt-complete-payload",
			schedules: []netchaos.Schedule{
				{Seed: 301, Rules: []netchaos.Rule{
					{Fault: netchaos.CorruptRequest, Path: "/complete", Rate: 1, From: 0, To: 1},
				}},
				{Seed: 302, Rules: []netchaos.Rule{
					{Fault: netchaos.CorruptRequest, Path: "/complete", Rate: 1, From: 0, To: 1},
				}},
			},
			wantFaults:    []netchaos.Fault{netchaos.CorruptRequest},
			wantCounter:   "fabric_complete_corrupt_total",
			corruptStatus: http.StatusUnprocessableEntity,
		},
		{
			// Every completion delivered twice, back to back, from both
			// workers: deterministic request ids make the second copy a
			// replay, and first-wins keeps stitching deterministic.
			name: "duplicate-deliveries",
			schedules: []netchaos.Schedule{
				{Seed: 401, Rules: []netchaos.Rule{
					{Fault: netchaos.Duplicate, Path: "/complete", Rate: 1},
				}},
				{Seed: 402, Rules: []netchaos.Rule{
					{Fault: netchaos.Duplicate, Path: "/complete", Rate: 1},
				}},
			},
			wantFaults:  []netchaos.Fault{netchaos.Duplicate},
			wantCounter: "fabric_complete_replayed_total",
		},
		{
			// A transient partition around worker w1: heartbeats and its
			// first completion are black-holed. Per-call deadlines turn
			// the holes into bounded timeouts and the retries land; the
			// spill store again runs underneath.
			name:        "partition-window",
			spill:       true,
			callTimeout: 300 * time.Millisecond,
			schedules: []netchaos.Schedule{
				{Seed: 501},
				{Seed: 502, Rules: []netchaos.Rule{
					{Fault: netchaos.BlackHole, Path: "/heartbeat", Rate: 1, From: 0, To: 2},
					{Fault: netchaos.BlackHole, Path: "/complete", Rate: 1, From: 0, To: 1},
				}},
			},
			wantFaults: []netchaos.Fault{netchaos.BlackHole},
		},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			got, _ := runChaosFabric(t, label, &sc)
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
					t.Errorf("%s differs from single-process run\nchaos: %.400s\nref:   %.400s",
						cmp.name, cmp.got, cmp.ref)
				}
			}
		})
	}
}
