package fabric

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"evclimate/internal/runner"
	"evclimate/internal/telemetry"
)

// defaultConnectAttempts bounds how often one protocol call is retried
// before the worker gives up on the coordinator.
const defaultConnectAttempts = 8

// defaultCallTimeout bounds protocol calls made before the lease TTL is
// known (the /spec fetch at join).
const defaultCallTimeout = 30 * time.Second

// WorkerConfig configures one joining worker.
type WorkerConfig struct {
	// URL is the coordinator's base URL (e.g. "http://127.0.0.1:7070").
	URL string
	// ID is the worker's stable identity ("" = "host:pid").
	ID string
	// Specs resolves the coordinator's spec name to a local builder.
	Specs *Registry
	// Workers is the per-unit pool size (0 = GOMAXPROCS).
	Workers int
	// JobTimeout and Retry configure the local pool's watchdog and job
	// retry, exactly as a single-process sweep would.
	JobTimeout time.Duration
	Retry      runner.RetryPolicy
	// Connect paces retries of failed protocol calls — the same backoff
	// policy job retry and lease reclaim use — and ConnectAttempts bounds
	// them (0 = defaultConnectAttempts). A worker therefore rides out a
	// coordinator restart instead of dying with it.
	Connect         runner.RetryPolicy
	ConnectAttempts int
	// CallTimeout bounds each protocol request end to end. Without it, a
	// black-holed connection (a dead switch, a partitioned coordinator)
	// would stall the worker forever — TCP alone can take minutes to
	// notice. 0 derives the deadline from the lease TTL after join
	// (2x TTL, at least 2s) and uses defaultCallTimeout before it.
	CallTimeout time.Duration
	// Transport overrides the HTTP transport (nil = default). Chaos
	// tests inject netchaos.Transport here.
	Transport http.RoundTripper
	// Cache, when non-nil, is primed from the coordinator's /cache
	// endpoint at join, so already-collected results are never
	// re-simulated here.
	Cache *runner.Cache
	// Git overrides the local build stamp (tests pin it; "" = git
	// describe). It must match the coordinator's.
	Git string
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Worker runs a lease loop against one coordinator.
type Worker struct {
	cfg  WorkerConfig
	id   string
	git  string
	seed int64 // jitter stream for connection backoff

	client *http.Client

	spec runner.Spec
	jobs []runner.Job
	// byIndex maps expansion index -> position in jobs.
	byIndex map[int]int
	fps     []string
	desc    SpecDesc
}

// NewWorker prepares a worker. Nothing touches the network until Run.
func NewWorker(cfg WorkerConfig) *Worker {
	id := cfg.ID
	if id == "" {
		host, _ := os.Hostname()
		id = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	git := cfg.Git
	if git == "" {
		git = telemetry.GitDescribe("")
	}
	w := &Worker{cfg: cfg, id: id, git: git, client: &http.Client{Transport: cfg.Transport}}
	for _, b := range []byte(id) {
		w.seed = w.seed*131 + int64(b)
	}
	if w.cfg.ConnectAttempts <= 0 {
		w.cfg.ConnectAttempts = defaultConnectAttempts
	}
	return w
}

// logf emits one progress line when logging is configured.
func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// terminalError marks protocol rejections that retrying cannot fix:
// mismatched builds, unknown specs, malformed requests, over-cap
// bodies. err, when set, is the typed cause (errors.Is-able).
type terminalError struct {
	msg string
	err error
}

func (e *terminalError) Error() string { return e.msg }
func (e *terminalError) Unwrap() error { return e.err }

// callTimeout is the per-request deadline: configured, or derived from
// the joined sweep's lease TTL (2x, floored at 2s), or the pre-join
// default. It bounds every protocol call so a black-holed peer costs
// one deadline, not a wedged worker.
func (w *Worker) callTimeout() time.Duration {
	if w.cfg.CallTimeout > 0 {
		return w.cfg.CallTimeout
	}
	if ttl := time.Duration(w.desc.LeaseTTLMs) * time.Millisecond; ttl > 0 {
		d := 2 * ttl
		if d < 2*time.Second {
			d = 2 * time.Second
		}
		return d
	}
	return defaultCallTimeout
}

// call POSTs (or GETs, when req is nil) one protocol endpoint with
// bounded, seeded-jitter backoff on connection failures and 5xx — the
// shared RetryPolicy.Delay stream, so worker reconnects pace exactly
// like job retries. 4xx responses are terminal.
func (w *Worker) call(ctx context.Context, path string, req, rep any) error {
	var lastErr error
	for attempt := 1; attempt <= w.cfg.ConnectAttempts; attempt++ {
		if attempt > 1 {
			select {
			case <-time.After(w.cfg.Connect.Delay(w.seed, attempt-1)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		lastErr = w.callOnce(ctx, path, req, rep)
		if lastErr == nil || ctx.Err() != nil {
			return lastErr
		}
		var term *terminalError
		if errors.As(lastErr, &term) {
			return lastErr
		}
		w.logf("fabric worker %s: %s attempt %d: %v", w.id, path, attempt, lastErr)
	}
	return fmt.Errorf("fabric: %s failed after %d attempts: %w", path, w.cfg.ConnectAttempts, lastErr)
}

func (w *Worker) callOnce(ctx context.Context, path string, req, rep any) error {
	cctx, cancel := context.WithTimeout(ctx, w.callTimeout())
	defer cancel()
	var body io.Reader
	method := http.MethodGet
	if req != nil {
		data, err := json.Marshal(req)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
		method = http.MethodPost
	}
	hr, err := http.NewRequestWithContext(cctx, method, w.cfg.URL+path, body)
	if err != nil {
		return err
	}
	if req != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.client.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		if e.Error == "" {
			e.Error = resp.Status
		}
		switch {
		case resp.StatusCode == http.StatusUnprocessableEntity:
			// Corrupt-in-transit: retryable — the next delivery of the
			// same bytes may arrive intact.
			return fmt.Errorf("%w: %s", ErrCorruptPayload, e.Error)
		case resp.StatusCode == http.StatusRequestEntityTooLarge:
			// Over the coordinator's cap: the same body would be rejected
			// again, so retrying cannot help.
			return &terminalError{msg: e.Error, err: ErrBodyTooLarge}
		case resp.StatusCode == http.StatusForbidden:
			return &terminalError{msg: e.Error, err: ErrWorkerQuarantined}
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			return &terminalError{msg: e.Error}
		}
		return errors.New(e.Error)
	}
	if rep == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(rep)
}

// join fetches the spec, rebuilds it locally, and verifies that this
// binary expands to the exact sweep the coordinator is serving.
func (w *Worker) join(ctx context.Context) error {
	if err := w.call(ctx, "/spec", nil, &w.desc); err != nil {
		return err
	}
	if w.desc.GoVersion != runtime.Version() {
		return fmt.Errorf("%w: coordinator built with %s, worker with %s",
			ErrSpecMismatch, w.desc.GoVersion, runtime.Version())
	}
	if w.desc.Git != w.git {
		return fmt.Errorf("%w: coordinator at %q, worker at %q — results must not mix builds",
			ErrSpecMismatch, w.desc.Git, w.git)
	}
	if w.cfg.Specs == nil {
		return fmt.Errorf("%w: worker has no spec registry", ErrSpecMismatch)
	}
	spec, err := w.cfg.Specs.Build(w.desc.Name, w.desc.Params)
	if err != nil {
		return err
	}
	jobs, err := runner.Expand(spec)
	if err != nil {
		return err
	}
	keys := runner.Fingerprints(jobs)
	fp := telemetry.FormatFingerprint(runner.SweepFingerprint(keys))
	if fp != w.desc.SweepFingerprint {
		return fmt.Errorf("%w: local expansion %s, coordinator %s", ErrSpecMismatch, fp, w.desc.SweepFingerprint)
	}
	w.spec, w.jobs = spec, jobs
	w.byIndex = make(map[int]int, len(jobs))
	w.fps = make([]string, len(jobs))
	for i := range jobs {
		w.byIndex[jobs[i].Index] = i
		w.fps[i] = telemetry.FormatFingerprint(keys[i])
	}
	// Caching follows the coordinator's mode: a hit skips the simulation
	// (no per-step spans or metrics in the record), which is only sound
	// when the whole fleet — coordinator included — runs cache mode.
	if !w.desc.Cache {
		w.cfg.Cache = nil
	}
	if w.cfg.Cache != nil {
		w.primeCache(ctx)
	}
	w.logf("fabric worker %s: joined sweep %s (%d jobs, %d units)", w.id, fp, w.desc.Jobs, w.desc.Units)
	return nil
}

// primeCache pulls the coordinator's shared result cache (best-effort:
// a coordinator without a cache 404s, and a cacheless join just means
// re-simulating).
func (w *Worker) primeCache(ctx context.Context) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, w.cfg.URL+"/cache", nil)
	if err != nil {
		return
	}
	resp, err := w.client.Do(hr)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		w.cfg.Cache.Load(resp.Body)
	}
}

// Run joins the coordinator and works the lease loop until the sweep
// completes, the context cancels, or the coordinator stays unreachable
// past the connection retry budget. Jobs executed: the second return
// value counts completions this worker streamed back.
func (w *Worker) Run(ctx context.Context) (int, error) {
	if err := w.join(ctx); err != nil {
		return 0, err
	}
	completed := 0
	for {
		if ctx.Err() != nil {
			return completed, ctx.Err()
		}
		var lease LeaseReply
		err := w.call(ctx, "/lease", &LeaseRequest{Worker: w.id, SweepFingerprint: w.desc.SweepFingerprint}, &lease)
		if err != nil {
			return completed, err
		}
		if lease.Done {
			w.logf("fabric worker %s: sweep done after %d jobs", w.id, completed)
			return completed, nil
		}
		if lease.Lease == 0 {
			wait := time.Duration(lease.WaitMs) * time.Millisecond
			if wait <= 0 {
				wait = leasePollWait
			}
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return completed, ctx.Err()
			}
			continue
		}
		n, done, err := w.runUnit(ctx, &lease)
		completed += n
		if err != nil {
			return completed, err
		}
		if done {
			// The completion reply already said the sweep is finished —
			// don't poll /lease again; the coordinator may be stitching
			// and shutting down by now.
			w.logf("fabric worker %s: sweep done after %d jobs", w.id, completed)
			return completed, nil
		}
	}
}

// runUnit executes one leased unit through the ordinary pool, renewing
// the lease from a heartbeat goroutine, and streams the journal-form
// records back. A lost lease cancels the unit mid-flight; whatever
// records were already collected are still offered (the coordinator
// deduplicates), and the loop moves on.
func (w *Worker) runUnit(ctx context.Context, lease *LeaseReply) (int, bool, error) {
	unitJobs := make([]runner.Job, 0, len(lease.Jobs))
	for k, idx := range lease.Jobs {
		pos, ok := w.byIndex[idx]
		if !ok || w.fps[pos] != lease.Fingerprints[k] {
			return 0, false, fmt.Errorf("%w: leased job %d not in local expansion", ErrSpecMismatch, idx)
		}
		unitJobs = append(unitJobs, w.jobs[pos])
	}

	uctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Heartbeat until the unit finishes; a rejected renewal means the
	// lease expired and the unit now belongs to someone else.
	ttl := time.Duration(lease.TTLMs) * time.Millisecond
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	hbDone := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-hbDone:
				return
			case <-uctx.Done():
				return
			case <-t.C:
				var rep HeartbeatReply
				err := w.call(uctx, "/heartbeat", &HeartbeatRequest{Worker: w.id, Lease: lease.Lease}, &rep)
				if err == nil && !rep.OK {
					w.logf("fabric worker %s: lease %d lost, abandoning unit %d", w.id, lease.Lease, lease.Unit)
					cancel()
					return
				}
			}
		}
	}()

	var mu sync.Mutex
	var records []*runner.JournalRecord
	opts := runner.Options{
		Workers:    w.cfg.Workers,
		Telemetry:  telemetry.NewRegistry(),
		JobTimeout: w.cfg.JobTimeout,
		Retry:      w.cfg.Retry,
		Cache:      w.cfg.Cache,
		OnRecord: func(rec *runner.JournalRecord) {
			mu.Lock()
			records = append(records, rec)
			mu.Unlock()
		},
	}
	if w.desc.Trace {
		// Spans only enter records while a trace log is attached; the
		// log itself is scratch — the coordinator stitches from records.
		opts.TraceLog = &telemetry.TraceLog{}
		opts.TraceSteps = w.desc.TraceSteps
	}
	_, runErr := runner.RunJobs(uctx, unitJobs, opts)
	close(hbDone)
	hbWG.Wait()

	if len(records) == 0 {
		if uctx.Err() != nil && ctx.Err() == nil {
			return 0, false, nil // lost lease before finishing anything
		}
		return 0, false, runErr
	}
	// Checksum each record before it hits the wire, and stamp the
	// delivery with a deterministic request id so retried or duplicated
	// deliveries of this completion are recognized and replayed.
	sums := make([]string, len(records))
	for k, rec := range records {
		sum, err := runner.ChecksumRecord(rec)
		if err != nil {
			return 0, false, fmt.Errorf("fabric: checksum record %d: %w", k, err)
		}
		sums[k] = sum
	}
	req := &CompleteRequest{
		Worker:    w.id,
		Lease:     lease.Lease,
		Unit:      lease.Unit,
		RequestID: completionRequestID(w.id, lease.Lease, lease.Unit),
		Records:   records,
		Sums:      sums,
	}
	var rep CompleteReply
	// Completion for a lost lease is best-effort: the records are valid
	// (fingerprint-checked) even if the unit was reassigned, and the
	// coordinator deduplicates by job index.
	cctx := ctx
	if err := w.call(cctx, "/complete", req, &rep); err != nil {
		if uctx.Err() != nil && ctx.Err() == nil {
			return 0, false, nil
		}
		return 0, false, err
	}
	w.logf("fabric worker %s: unit %d complete (%d accepted, %d duplicate)",
		w.id, lease.Unit, rep.Accepted, rep.Duplicates)
	return rep.Accepted, rep.Done, runErr
}

// completionRequestID derives the idempotency key for one logical
// completion. It hashes (worker, lease, unit) — stable across network
// retries of the same delivery, distinct across re-leases (a new lease
// id is a genuinely new completion the coordinator must process).
func completionRequestID(worker string, lease uint64, unit int) uint64 {
	h := fnv.New64a()
	io.WriteString(h, worker)
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], lease)
	binary.LittleEndian.PutUint64(b[8:], uint64(unit))
	h.Write(b[:])
	id := h.Sum64()
	if id == 0 {
		id = 1 // 0 means "no id" on the wire
	}
	return id
}
