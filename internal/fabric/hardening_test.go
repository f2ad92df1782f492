package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"evclimate/internal/netchaos"
	"evclimate/internal/runner"
	"evclimate/internal/telemetry"
)

// hardenedCoord starts a coordinator for raw-protocol hardening tests.
func hardenedCoord(t *testing.T, mutate func(*CoordinatorConfig)) (*Coordinator, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg := CoordinatorConfig{
		Spec: mustSpec(t), SpecName: "grid", Params: gridParams,
		Label: "hardening", UnitSize: 1000, LeaseTTL: time.Second,
		Telemetry: reg, Git: "test",
	}
	if mutate != nil {
		mutate(&cfg)
	}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord, reg
}

// postComplete delivers one raw completion and returns the HTTP status
// plus the decoded reply (when 200).
func postComplete(t *testing.T, addr string, req *CompleteRequest) (int, CompleteReply, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/complete", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, CompleteReply{}, e.Error
	}
	var rep CompleteReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, rep, ""
}

// failedRecord builds a valid-for-this-sweep record carrying an error
// (no Result needed), with its wire checksum.
func failedRecord(t *testing.T, coord *Coordinator, idx, attempts int) (*runner.JournalRecord, string) {
	t.Helper()
	rec := &runner.JournalRecord{
		Kind: "job", Index: idx, Fingerprint: coord.fps[idx],
		Seed: coord.jobs[idx].Seed, Attempts: attempts,
		ElapsedNs: int64(attempts) * 1000, Err: "synthetic hardening failure",
	}
	sum, err := runner.ChecksumRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	return rec, sum
}

// TestCompleteBodyCap: a /complete body over MaxCompleteBytes is
// rejected with a typed 413 that the worker treats as terminal —
// retrying an oversize body cannot succeed, so the retry budget must
// not be burned on it.
func TestCompleteBodyCap(t *testing.T) {
	coord, _ := hardenedCoord(t, func(cfg *CoordinatorConfig) { cfg.MaxCompleteBytes = 1 << 10 })
	rec, sum := failedRecord(t, coord, 0, 1)
	rec.Err = strings.Repeat("x", 4<<10) // inflate past the cap
	status, _, msg := postComplete(t, coord.Addr, &CompleteRequest{
		Worker: "big", Lease: 1, Unit: 0, Records: []*runner.JournalRecord{rec}, Sums: []string{sum},
	})
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize completion: status %d (%s), want 413", status, msg)
	}
	if !strings.Contains(msg, ErrBodyTooLarge.Error()) {
		t.Errorf("413 body %q does not carry the typed error", msg)
	}
	if coord.Snapshot().Completed != 0 {
		t.Error("oversize completion stored records")
	}

	// The worker's protocol client maps the 413 onto the terminal typed
	// error without consuming retry attempts.
	w := NewWorker(WorkerConfig{
		URL: "http://" + coord.Addr, ID: "big", Git: "test",
		Connect:         runner.RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
		ConnectAttempts: 4,
	})
	err := w.call(context.Background(), "/complete", &CompleteRequest{
		Worker: "big", Lease: 1, Unit: 0, Records: []*runner.JournalRecord{rec}, Sums: []string{sum},
	}, &CompleteReply{})
	if !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("worker call error = %v, want ErrBodyTooLarge", err)
	}
	// Control-plane endpoints are capped too.
	resp, err := http.Post("http://"+coord.Addr+"/lease", "application/json",
		bytes.NewReader(append(bytes.Repeat([]byte(" "), maxControlBytes+1), []byte("{}")...)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize lease: status %d, want 413", resp.StatusCode)
	}
}

// TestCompleteChecksumRejectsCorruption: a completion whose payload
// checksums do not match what arrived, or that carries a key the
// protocol does not have, is rejected 422 (retryable), counted, and
// leaves no records behind; the intact re-send lands.
func TestCompleteChecksumRejectsCorruption(t *testing.T) {
	coord, reg := hardenedCoord(t, nil)
	rec, sum := failedRecord(t, coord, 0, 1)

	// Corrupt: the worker's sums describe different bytes.
	bad := "0000000000000000"
	status, _, msg := postComplete(t, coord.Addr, &CompleteRequest{
		Worker: "w", Lease: 1, Unit: 0, RequestID: 77,
		Records: []*runner.JournalRecord{rec}, Sums: []string{bad},
	})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt completion: status %d (%s), want 422", status, msg)
	}
	if !strings.Contains(msg, ErrCorruptPayload.Error()) {
		t.Errorf("422 body %q does not carry the typed error", msg)
	}
	if got := reg.Counter("fabric_complete_corrupt_total").Value(); got != 1 {
		t.Errorf("fabric_complete_corrupt_total = %v, want 1", got)
	}
	if coord.Snapshot().Completed != 0 {
		t.Fatal("corrupt completion stored records")
	}
	// Mismatched sums/records arity is corruption too.
	status, _, _ = postComplete(t, coord.Addr, &CompleteRequest{
		Worker: "w", Lease: 1, Unit: 0, RequestID: 77,
		Records: []*runner.JournalRecord{rec}, Sums: []string{sum, sum},
	})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("arity-mismatched completion: status %d, want 422", status)
	}
	// A flipped byte in the key of a zero-valued field (job 0's index)
	// decodes to the record that was sent and passes its checksum; the
	// unknown key alone marks the completion corrupt.
	body, err := json.Marshal(&CompleteRequest{
		Worker: "w", Lease: 1, Unit: 0, RequestID: 77,
		Records: []*runner.JournalRecord{rec}, Sums: []string{sum},
	})
	if err != nil {
		t.Fatal(err)
	}
	k := bytes.Index(body, []byte(`"index":0,`))
	if k < 0 {
		t.Fatalf("no zero index in %s", body)
	}
	body[k+1] ^= 0xFF
	resp, err := http.Post("http://"+coord.Addr+"/complete", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("completion with a corrupted key: status %d, want 422", resp.StatusCode)
	}
	// The intact re-send (same RequestID — a retry, not a new
	// completion) is accepted normally: the rejections never entered the
	// idempotency cache.
	status, rep, _ := postComplete(t, coord.Addr, &CompleteRequest{
		Worker: "w", Lease: 1, Unit: 0, RequestID: 77,
		Records: []*runner.JournalRecord{rec}, Sums: []string{sum},
	})
	if status != http.StatusOK || rep.Accepted != 1 || rep.Replayed {
		t.Fatalf("intact re-send: status %d rep %+v, want accepted", status, rep)
	}
	if coord.Snapshot().Completed != 1 {
		t.Fatal("intact re-send did not store the record")
	}
}

// TestDuplicateCompletionIdempotent: re-delivering the same logical
// completion (same RequestID) replays the cached reply; delivering the
// same records under a new id counts duplicates; stitching stays
// first-wins whatever arrives later.
func TestDuplicateCompletionIdempotent(t *testing.T) {
	coord, reg := hardenedCoord(t, nil)
	rec, sum := failedRecord(t, coord, 0, 1)
	first := &CompleteRequest{
		Worker: "w", Lease: 1, Unit: 0, RequestID: 42,
		Records: []*runner.JournalRecord{rec}, Sums: []string{sum},
	}
	status, rep, _ := postComplete(t, coord.Addr, first)
	if status != http.StatusOK || rep.Accepted != 1 || rep.Replayed {
		t.Fatalf("first delivery: status %d rep %+v", status, rep)
	}

	// Same RequestID: the duplicated delivery replays, re-counting
	// nothing.
	status, rep, _ = postComplete(t, coord.Addr, first)
	if status != http.StatusOK || !rep.Replayed || rep.Accepted != 1 || rep.Duplicates != 0 {
		t.Fatalf("replayed delivery: status %d rep %+v, want replayed accepted=1", status, rep)
	}
	if got := reg.Counter("fabric_complete_replayed_total").Value(); got != 1 {
		t.Errorf("fabric_complete_replayed_total = %v, want 1", got)
	}
	if got := reg.Counter("fabric_records_duplicate_total").Value(); got != 0 {
		t.Errorf("fabric_records_duplicate_total = %v after replay, want 0", got)
	}

	// New RequestID, same job (a reassigned unit finishing twice): the
	// record-level dedup counts it and the original record wins.
	later, laterSum := failedRecord(t, coord, 0, 7) // would differ if it replaced the original
	status, rep, _ = postComplete(t, coord.Addr, &CompleteRequest{
		Worker: "other", Lease: 2, Unit: 0, RequestID: 43,
		Records: []*runner.JournalRecord{later}, Sums: []string{laterSum},
	})
	if status != http.StatusOK || rep.Duplicates != 1 || rep.Accepted != 0 {
		t.Fatalf("reassigned delivery: status %d rep %+v, want 1 duplicate", status, rep)
	}
	if got := reg.Counter("fabric_records_duplicate_total").Value(); got != 1 {
		t.Errorf("fabric_records_duplicate_total = %v, want 1", got)
	}
	stored, err := coord.store.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if stored.Attempts != 1 {
		t.Fatalf("stored record attempts = %d, want the first delivery's 1 (first-wins)", stored.Attempts)
	}
}

// TestFlapBreakerBenchesWorker: a worker whose leases repeatedly die
// mid-flight is refused further leases with a typed 403, while healthy
// workers keep leasing.
func TestFlapBreakerBenchesWorker(t *testing.T) {
	coord, reg := hardenedCoord(t, func(cfg *CoordinatorConfig) {
		cfg.LeaseTTL = 50 * time.Millisecond
		cfg.FlapLimit = 2
		cfg.QuarantineAfter = 100 // keep the unit alive; the worker is what gets benched
		cfg.Reclaim = runner.RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	})
	lease := func(worker string) (int, LeaseReply) {
		t.Helper()
		body, _ := json.Marshal(LeaseRequest{Worker: worker, SweepFingerprint: coord.fp})
		resp, err := http.Post("http://"+coord.Addr+"/lease", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rep LeaseReply
		json.NewDecoder(resp.Body).Decode(&rep)
		return resp.StatusCode, rep
	}
	deadline := time.Now().Add(10 * time.Second)
	granted := 0
	for granted < 2 {
		status, rep := lease("flappy")
		if status == http.StatusForbidden {
			t.Fatalf("benched after %d grants, want 2", granted)
		}
		if rep.Lease != 0 {
			granted++ // never heartbeat: let it expire
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease never re-granted: %+v", coord.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Wait for the second expiry to trip the breaker.
	for {
		if status, _ := lease("flappy"); status == http.StatusForbidden {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flappy worker never benched: %+v", coord.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := reg.Counter("fabric_workers_quarantined_total").Value(); got != 1 {
		t.Errorf("fabric_workers_quarantined_total = %v, want 1", got)
	}
	if p := coord.Snapshot(); p.WorkersQuarantined != 1 {
		t.Errorf("progress WorkersQuarantined = %d, want 1", p.WorkersQuarantined)
	}
	// A healthy worker still leases.
	if status, rep := lease("steady"); status != http.StatusOK || (rep.Lease == 0 && rep.WaitMs == 0 && !rep.Done) {
		t.Errorf("healthy worker refused: status %d rep %+v", status, rep)
	}
	// The worker client surfaces the bench as the typed terminal error.
	w := NewWorker(WorkerConfig{
		URL: "http://" + coord.Addr, ID: "flappy", Git: "test",
		Connect:         runner.RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
		ConnectAttempts: 3,
	})
	err := w.call(context.Background(), "/lease",
		&LeaseRequest{Worker: "flappy", SweepFingerprint: coord.fp}, &LeaseReply{})
	if !errors.Is(err, ErrWorkerQuarantined) {
		t.Fatalf("benched lease error = %v, want ErrWorkerQuarantined", err)
	}
}

// TestCallDeadlineUnsticksBlackHole is the untimed-client regression
// test: before per-request deadlines, a black-holed connection stalled
// the worker forever (an http.Client with no Timeout waits on TCP
// alone). Now every call carries a deadline, so a partitioned
// coordinator costs one CallTimeout per attempt, bounded by the retry
// budget.
func TestCallDeadlineUnsticksBlackHole(t *testing.T) {
	coord, _ := hardenedCoord(t, nil)
	chaos := netchaos.NewTransport(netchaos.Schedule{
		Seed:  7,
		Rules: []netchaos.Rule{{Fault: netchaos.BlackHole, Path: "/spec", Rate: 1}},
	}, nil)
	w := NewWorker(WorkerConfig{
		URL: "http://" + coord.Addr, ID: "stuck", Specs: testSpecs(t), Git: "test",
		Transport:       chaos,
		CallTimeout:     150 * time.Millisecond,
		Connect:         runner.RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond},
		ConnectAttempts: 2,
	})
	start := time.Now()
	_, err := w.Run(context.Background())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("black-holed join succeeded?")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("black-holed join error = %v, want deadline exceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("black-holed join took %v — per-call deadline not applied", elapsed)
	}
	if got := chaos.Injected()[netchaos.BlackHole]; got != 2 {
		t.Errorf("black-hole fired %d times, want 2 (every attempt)", got)
	}
}

// TestCompletionOneFsync: a 16-record completion appends to the
// journal in one call, so at the default FsyncEvery it costs one fsync,
// not one per record; a record repeated within the completion counts as
// a duplicate, and each accepted record reads back from its own journal
// position.
func TestCompletionOneFsync(t *testing.T) {
	coord, _ := hardenedCoord(t, func(cfg *CoordinatorConfig) {
		cfg.Spec.Targets = []float64{22, 24}
		cfg.Journal = &runner.JournalConfig{Dir: t.TempDir(), Git: "test"}
		cfg.Spill = true // the store reads each record back from its position
	})
	if len(coord.jobs) != 16 {
		t.Fatalf("sweep has %d jobs, want 16", len(coord.jobs))
	}
	req := &CompleteRequest{Worker: "w", Lease: 1, Unit: 0, RequestID: 7}
	for i := 0; i <= len(coord.jobs); i++ {
		rec, sum := failedRecord(t, coord, i%len(coord.jobs), 1+i/len(coord.jobs))
		req.Records = append(req.Records, rec)
		req.Sums = append(req.Sums, sum)
	}
	before := coord.jnl.Syncs()
	status, rep, msg := postComplete(t, coord.Addr, req)
	if status != http.StatusOK || rep.Accepted != 16 || rep.Duplicates != 1 {
		t.Fatalf("completion: status %d rep %+v (%s), want 16 accepted and 1 duplicate", status, rep, msg)
	}
	if got := coord.jnl.Syncs() - before; got != 1 {
		t.Errorf("16-record completion cost %d fsyncs, want 1", got)
	}
	for i := range coord.jobs {
		rec, err := coord.store.Get(i)
		if err != nil || rec.Index != i || rec.Attempts != 1 {
			t.Errorf("job %d reads back as %+v, %v", i, rec, err)
		}
	}
}
