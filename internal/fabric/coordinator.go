package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"evclimate/internal/runner"
	"evclimate/internal/telemetry"
)

// Defaults for the lease machinery.
const (
	// DefaultUnitSize is the target number of jobs per leased unit.
	DefaultUnitSize = 8
	// DefaultLeaseTTL is the heartbeat deadline before a lease expires.
	DefaultLeaseTTL = 10 * time.Second
	// DefaultQuarantineAfter is the number of distinct workers a unit
	// must fail on before it is quarantined.
	DefaultQuarantineAfter = 3
	// DefaultFlapLimit is how many expired leases one worker may
	// accumulate before the flap breaker quarantines it.
	DefaultFlapLimit = 8
	// DefaultMaxCompleteBytes caps a /complete request body — large
	// enough for a full-fidelity unit (records with traces and metric
	// snapshots), small enough that a corrupt length or a hostile
	// client cannot OOM the coordinator.
	DefaultMaxCompleteBytes = 256 << 20
	// maxControlBytes caps the small control-plane bodies (/lease,
	// /heartbeat) — kilobytes of JSON at most.
	maxControlBytes = 1 << 20
	// leasePollWait is the wait hint handed to workers when no unit is
	// leasable right now.
	leasePollWait = 250 * time.Millisecond
	// shutdownGrace bounds how long Close lets in-flight requests
	// finish before cutting their connections.
	shutdownGrace = 2 * time.Second
)

// CoordinatorConfig configures one sweep's coordinator.
type CoordinatorConfig struct {
	// Spec is the sweep to distribute; the coordinator expands it once.
	Spec runner.Spec
	// SpecName and Params are the wire identity workers rebuild the spec
	// from (via their local builder registry).
	SpecName string
	Params   map[string]string
	// Label names the sweep in the manifest and the journal file.
	Label string
	// UnitSize is the target jobs per leased unit (0 = DefaultUnitSize).
	UnitSize int
	// LeaseTTL is the heartbeat deadline (0 = DefaultLeaseTTL).
	LeaseTTL time.Duration
	// QuarantineAfter quarantines a unit once its lease has been lost on
	// this many distinct workers (0 = DefaultQuarantineAfter).
	QuarantineAfter int
	// FlapLimit is the per-worker flap breaker: a worker whose leases
	// expired mid-flight this many times is quarantined — refused
	// further leases — instead of being allowed to keep churning units
	// (0 = DefaultFlapLimit, negative = breaker off).
	FlapLimit int
	// MaxCompleteBytes caps a /complete request body; oversize bodies
	// are rejected with a typed 413 workers treat as terminal
	// (0 = DefaultMaxCompleteBytes).
	MaxCompleteBytes int64
	// Spill keeps only each completed record's position in the journal
	// in memory, not the record, so the record store stays O(jobs) on
	// cluster-scale sweeps; stitching reads the records back from the
	// journal in expansion order. It requires Journal. Without it every
	// record stays in memory until Stitch.
	Spill bool
	// Reclaim paces re-leasing of an expired unit: attempt n waits
	// Reclaim.Delay(unitSeed, n) — the exact backoff policy job retry
	// uses, so the two paths cannot drift.
	Reclaim runner.RetryPolicy
	// Journal, when non-nil, journals every lease event and completion
	// through the runner's append-only journal, making a coordinator
	// crash resumable (open with Resume to pick a journal back up).
	Journal *runner.JournalConfig
	// Telemetry, when non-nil, carries the fabric counters live and
	// receives every job's merged metric contribution at Stitch.
	Telemetry *telemetry.Registry
	// TraceLog, when non-nil, receives every job's step spans at Stitch,
	// in expansion order; workers are asked to collect spans.
	TraceLog *telemetry.TraceLog
	// TraceSteps caps each job's span ring on the workers.
	TraceSteps int
	// Manifest, when non-nil, records the stitched run and any journal
	// resume lineage.
	Manifest *telemetry.Manifest
	// Cache, when non-nil, is the content-addressed shared result cache:
	// served to joining workers over /cache, fed by every successful
	// completion, so results deduplicate by scenario fingerprint across
	// the whole fleet.
	Cache *runner.Cache
	// Git overrides the build stamp (tests pin it; "" = git describe).
	Git string
}

// completionKey identifies one logical completion across duplicated
// deliveries: the unit, the lease it ran under, and the worker-derived
// request id.
type completionKey struct {
	unit  int
	lease uint64
	reqID uint64
}

// unit lease states.
const (
	unitPending = iota
	unitLeased
	unitDone
	unitQuarantined
)

// unit is one leased shard of the expansion.
type unit struct {
	id   int
	jobs []int // expansion indexes, ascending
	// seed derives the unit's reclaim-backoff jitter stream.
	seed int64

	state   int
	lease   uint64
	worker  string
	expires time.Time
	// notBefore delays re-leasing after an expiry (reclaim backoff).
	notBefore time.Time
	// failedOn is the set of distinct workers that lost this unit's
	// lease; reaching QuarantineAfter quarantines the unit.
	failedOn map[string]bool
}

// Coordinator shards one expanded sweep into leased units and serves
// them to workers until every unit is done or quarantined.
type Coordinator struct {
	cfg  CoordinatorConfig
	jobs []runner.Job
	// keys are the per-job scenario fingerprints (runner.Fingerprints),
	// hashed once in NewCoordinator; fps and fp are derived from them.
	keys []uint64
	fps  []string // per-job fingerprints, hex, index-aligned
	fp   string   // sweep fingerprint, hex
	git  string

	mu       sync.Mutex
	units    []*unit
	byLease  map[uint64]*unit
	store    *recordStore
	workers  map[string]time.Time // worker id -> last seen
	flaps    map[string]int       // worker id -> mid-flight lease losses
	benched  map[string]bool      // workers the flap breaker quarantined
	seen     map[completionKey]*CompleteReply
	leaseSeq uint64
	done     chan struct{}
	resumed  int // jobs replayed from the journal at open

	jnl *runner.Journal

	// fabric_* instruments (excluded from deterministic snapshots).
	cGranted, cExpired, cReclaimed, cQuarantined *telemetry.Counter
	cRecords, cDuplicates                        *telemetry.Counter
	cCorrupt, cReplayed, cWorkersQuarantined     *telemetry.Counter
	gWorkersLive, gUnitsDone, gJobsDone          *telemetry.Gauge

	srv *http.Server
	ln  net.Listener
	// Addr is the bound listen address once Serve returns.
	Addr string

	reapStop chan struct{}
}

// NewCoordinator expands the spec, shards it into units, and (when
// configured) opens or resumes the journal, replaying completed jobs.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.UnitSize <= 0 {
		cfg.UnitSize = DefaultUnitSize
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.QuarantineAfter <= 0 {
		cfg.QuarantineAfter = DefaultQuarantineAfter
	}
	if cfg.FlapLimit == 0 {
		cfg.FlapLimit = DefaultFlapLimit
	}
	if cfg.MaxCompleteBytes <= 0 {
		cfg.MaxCompleteBytes = DefaultMaxCompleteBytes
	}
	if cfg.Spill && cfg.Journal == nil {
		return nil, errors.New("fabric: Spill reads records back from the journal, so it needs Journal")
	}
	jobs, err := runner.Expand(cfg.Spec)
	if err != nil {
		return nil, err
	}
	keys := runner.Fingerprints(jobs)
	c := &Coordinator{
		cfg:      cfg,
		jobs:     jobs,
		keys:     keys,
		fps:      make([]string, len(jobs)),
		fp:       telemetry.FormatFingerprint(runner.SweepFingerprint(keys)),
		git:      cfg.Git,
		byLease:  make(map[uint64]*unit),
		store:    newRecordStore(nil),
		workers:  make(map[string]time.Time),
		flaps:    make(map[string]int),
		benched:  make(map[string]bool),
		seen:     make(map[completionKey]*CompleteReply),
		done:     make(chan struct{}),
		reapStop: make(chan struct{}),
	}
	if c.git == "" {
		c.git = telemetry.GitDescribe("")
	}
	for i, k := range keys {
		c.fps[i] = telemetry.FormatFingerprint(k)
	}
	for id, idxs := range shardUnits(keys, cfg.UnitSize) {
		c.units = append(c.units, &unit{
			id: id, jobs: idxs, seed: jobs[idxs[0]].Seed,
			failedOn: make(map[string]bool),
		})
	}
	c.resolveCounters()

	if cfg.Journal != nil {
		jc := *cfg.Journal
		if jc.Git == "" {
			jc.Git = c.git
		}
		jnl, err := runner.OpenJournal(&jc, cfg.Label, keys)
		if err != nil {
			return nil, err
		}
		c.jnl = jnl
		if cfg.Spill {
			c.store = newRecordStore(jnl)
		}
		// Replay completions; failed records are re-run, mirroring the
		// pool's resume semantics.
		for i := range jobs {
			rec, at := jnl.Replayed(i)
			if rec == nil || rec.Err != "" {
				continue
			}
			if rec.Fingerprint != c.fps[i] {
				jnl.Close()
				return nil, fmt.Errorf("%w: journal record for job %d has fingerprint %s, this expansion has %s",
					runner.ErrJournalMismatch, i, rec.Fingerprint, c.fps[i])
			}
			c.store.Put(i, rec, at)
			c.resumed++
			c.publishCache(i, rec)
		}
		for _, u := range c.units {
			if c.unitComplete(u) {
				u.state = unitDone
			}
		}
		if c.resumed > 0 && cfg.Manifest != nil {
			cfg.Manifest.AddResume(telemetry.ResumeInfo{
				Journal:          jnl.Path(),
				SweepFingerprint: jnl.Header().SweepFingerprint,
				ReplayedJobs:     c.resumed,
				Git:              jnl.Header().Git,
			})
		}
	}
	c.refreshGauges()
	c.checkDone()
	return c, nil
}

// resolveCounters registers the fabric instruments once, up front. All
// fabric_* series are topology-dependent bookkeeping; the deterministic
// filter excludes them from manifests.
func (c *Coordinator) resolveCounters() {
	reg := c.cfg.Telemetry
	if reg == nil {
		return
	}
	c.cGranted = reg.Counter("fabric_leases_granted_total")
	c.cExpired = reg.Counter("fabric_leases_expired_total")
	c.cReclaimed = reg.Counter("fabric_leases_reclaimed_total")
	c.cQuarantined = reg.Counter("fabric_units_quarantined_total")
	c.cRecords = reg.Counter("fabric_records_total")
	c.cDuplicates = reg.Counter("fabric_records_duplicate_total")
	c.cCorrupt = reg.Counter("fabric_complete_corrupt_total")
	c.cReplayed = reg.Counter("fabric_complete_replayed_total")
	c.cWorkersQuarantined = reg.Counter("fabric_workers_quarantined_total")
	c.gWorkersLive = reg.Gauge("fabric_workers_live")
	c.gUnitsDone = reg.Gauge("fabric_units_done")
	c.gJobsDone = reg.Gauge("fabric_jobs_completed")
}

// unitComplete reports whether every job of a unit has a record
// (caller holds mu, or is still constructing).
func (c *Coordinator) unitComplete(u *unit) bool {
	for _, i := range u.jobs {
		if !c.store.Has(i) {
			return false
		}
	}
	return true
}

// publishCache shares job i's successful record's result under its
// scenario fingerprint (caller holds mu, or is still constructing).
func (c *Coordinator) publishCache(i int, rec *runner.JournalRecord) {
	if c.cfg.Cache == nil || rec.Err != "" || rec.Result == nil {
		return
	}
	c.cfg.Cache.Put(c.keys[i], rec.Result, time.Duration(rec.ElapsedNs))
}

// refreshGauges updates the progress gauges (caller holds mu, or is
// still constructing).
func (c *Coordinator) refreshGauges() {
	if c.cfg.Telemetry == nil {
		return
	}
	doneUnits := 0
	for _, u := range c.units {
		if u.state == unitDone {
			doneUnits++
		}
	}
	c.gUnitsDone.Set(float64(doneUnits))
	c.gJobsDone.Set(float64(c.store.Len()))
	live := 0
	cut := time.Now().Add(-2 * c.cfg.LeaseTTL)
	for _, seen := range c.workers {
		if seen.After(cut) {
			live++
		}
	}
	c.gWorkersLive.Set(float64(live))
}

// checkDone closes the done channel once every unit is done or
// quarantined (caller holds mu, or is still constructing).
func (c *Coordinator) checkDone() {
	for _, u := range c.units {
		if u.state != unitDone && u.state != unitQuarantined {
			return
		}
	}
	select {
	case <-c.done:
	default:
		close(c.done)
	}
}

// reap expires overdue leases: the unit returns to pending behind a
// seeded-jitter reclaim backoff, the loss is journaled, and a unit that
// has now failed on QuarantineAfter distinct workers is quarantined
// (caller holds mu).
func (c *Coordinator) reap(now time.Time) {
	for _, u := range c.units {
		if u.state != unitLeased || now.Before(u.expires) {
			continue
		}
		delete(c.byLease, u.lease)
		u.failedOn[u.worker] = true
		c.cExpired.Inc()
		c.journalLease("expire", u)
		// Flap breaker: a worker that keeps losing leases mid-flight (a
		// flapping link, a host that wedges under load) is benched rather
		// than allowed to keep churning units toward unit quarantine.
		if c.cfg.FlapLimit > 0 && !c.benched[u.worker] {
			c.flaps[u.worker]++
			if c.flaps[u.worker] >= c.cfg.FlapLimit {
				c.benched[u.worker] = true
				c.cWorkersQuarantined.Inc()
				delete(c.workers, u.worker)
			}
		}
		if len(u.failedOn) >= c.cfg.QuarantineAfter {
			u.state = unitQuarantined
			c.cQuarantined.Inc()
			c.journalLease("quarantine", u)
			continue
		}
		u.state = unitPending
		u.notBefore = now.Add(c.cfg.Reclaim.Delay(u.seed, len(u.failedOn)))
		c.cReclaimed.Inc()
	}
	c.refreshGauges()
	c.checkDone()
}

// journalLease appends one lease event (best-effort: lease records are
// audit data, not correctness data).
func (c *Coordinator) journalLease(event string, u *unit) {
	if c.jnl == nil {
		return
	}
	c.jnl.AppendLease(&runner.LeaseRecord{Event: event, Unit: u.id, Worker: u.worker, Lease: u.lease})
}

// Serve binds addr (e.g. "127.0.0.1:0") and starts the fabric protocol
// endpoints plus a background lease reaper. The bound address is in
// c.Addr.
func (c *Coordinator) Serve(addr string) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/spec", c.handleSpec)
	mux.HandleFunc("/lease", c.handleLease)
	mux.HandleFunc("/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/complete", c.handleComplete)
	mux.HandleFunc("/snapshot", c.handleSnapshot)
	mux.HandleFunc("/cache", c.handleCache)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	c.ln = ln
	c.Addr = ln.Addr().String()
	// Server-side deadlines derived from the lease TTL: a peer that
	// stalls mid-request (black-holed link, wedged client) is cut loose
	// well before its lease machinery would notice, so coordinator
	// connections cannot accumulate behind dead transports.
	ttl := c.cfg.LeaseTTL
	c.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: ttl,
		ReadTimeout:       3 * ttl,
		WriteTimeout:      3 * ttl,
		IdleTimeout:       6 * ttl,
	}
	go c.srv.Serve(ln)
	go c.reapLoop()
	return nil
}

// reapLoop expires leases even while no requests arrive.
func (c *Coordinator) reapLoop() {
	t := time.NewTicker(c.cfg.LeaseTTL / 4)
	defer t.Stop()
	for {
		select {
		case <-c.reapStop:
			return
		case now := <-t.C:
			c.mu.Lock()
			c.reap(now)
			c.mu.Unlock()
		}
	}
}

// Wait blocks until the sweep completes (every unit done or
// quarantined) or the context cancels.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-c.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops the listener, the reaper, and the journal. Idempotent
// enough for defer-after-Serve-failure (nil fields are skipped).
// Requests already being served finish first — the reply to the
// sweep's final completion among them, which tells its worker the
// sweep is done — unless they outlast shutdownGrace; the journal
// closes only after them.
func (c *Coordinator) Close() error {
	var errs []error
	if c.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		if err := c.srv.Shutdown(ctx); err != nil {
			errs = append(errs, c.srv.Close())
		}
		cancel()
		c.srv = nil
	}
	select {
	case <-c.reapStop:
	default:
		close(c.reapStop)
	}
	if c.jnl != nil {
		errs = append(errs, c.jnl.Close())
		c.jnl = nil
	}
	return errors.Join(errs...)
}

// Drain blocks until every recently-seen worker has been told the sweep
// is done (workers exit on that reply) or the timeout passes. Closing
// the coordinator immediately after Wait would strand the other workers
// — the ones that didn't deliver the final completion — retrying a dead
// port through their whole connect budget before giving up with an
// error; draining first lets them all exit promptly and cleanly.
func (c *Coordinator) Drain(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		live := c.progressLocked().WorkersLive
		c.mu.Unlock()
		if live == 0 || !time.Now().Before(deadline) {
			return
		}
		time.Sleep(leasePollWait / 2)
	}
}

// Resumed returns the number of jobs replayed from the journal when the
// coordinator opened.
func (c *Coordinator) Resumed() int { return c.resumed }

// Snapshot returns the live progress (also served at /snapshot).
func (c *Coordinator) Snapshot() Progress {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.progressLocked()
}

func (c *Coordinator) progressLocked() Progress {
	p := Progress{
		SweepFingerprint:   c.fp,
		Jobs:               len(c.jobs),
		Units:              len(c.units),
		Completed:          c.store.Len(),
		Failed:             c.store.Failed(),
		WorkersQuarantined: len(c.benched),
	}
	for _, u := range c.units {
		switch u.state {
		case unitDone:
			p.UnitsDone++
		case unitLeased:
			p.UnitsLeased++
		case unitQuarantined:
			p.UnitsQuarantined++
		}
	}
	cut := time.Now().Add(-2 * c.cfg.LeaseTTL)
	for _, seen := range c.workers {
		if seen.After(cut) {
			p.WorkersLive++
		}
	}
	select {
	case <-c.done:
		p.Done = true
	default:
	}
	return p
}

// StitchEach streams the stitched results in expansion order, one
// record at a time: each job's record is loaded from the store (a
// spilling store reads exactly one record back from the journal per
// call, so StitchEach must run before Close),
// rebuilt via the journal replay path, its metric snapshot merged into
// the registry, its step spans appended to the trace log, and the
// resulting JobResult handed to fn; the run is recorded in the manifest
// at the end. Artifacts are byte-identical to a single-process run of
// the same spec, whatever topology executed it. Jobs of quarantined
// units carry ErrUnitQuarantined. fn must not retain the JobResult
// pointer across calls.
func (c *Coordinator) StitchEach(fn func(*runner.JobResult) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.jobs {
		rec, err := c.store.Get(i)
		if err != nil {
			return err
		}
		var jr runner.JobResult
		switch {
		case rec == nil:
			jr = runner.JobResult{Job: c.jobs[i],
				Err: fmt.Errorf("job %d: %w", i, ErrUnitQuarantined)}
			if err := fn(&jr); err != nil {
				return err
			}
			continue
		case rec.Err != "":
			jr = runner.JobResult{
				Job:      c.jobs[i],
				Err:      errors.New(rec.Err),
				Elapsed:  time.Duration(rec.ElapsedNs),
				Attempts: rec.Attempts,
				Replayed: true,
			}
		default:
			if jr, err = runner.ReplayRecord(&c.jobs[i], rec); err != nil {
				return err
			}
		}
		if c.cfg.Telemetry != nil {
			if err := c.cfg.Telemetry.Merge(rec.Metrics); err != nil {
				return fmt.Errorf("fabric: stitch job %d: %w", i, err)
			}
		}
		if c.cfg.TraceLog != nil && len(rec.Spans) > 0 {
			spans := make([]telemetry.StepSpan, len(rec.Spans))
			copy(spans, rec.Spans)
			for k := range spans {
				spans[k].Job = i
			}
			c.cfg.TraceLog.Append(spans...)
		}
		if err := fn(&jr); err != nil {
			return err
		}
	}
	if c.cfg.Manifest != nil {
		c.cfg.Manifest.AddRun(runner.ManifestRunInfo(c.cfg.Label, c.cfg.Spec.BaseSeed, c.jobs, c.keys))
	}
	return nil
}

// Stitch folds the collected records into a Sweep via StitchEach —
// convenient when the caller wants the whole result set in memory
// anyway. Pipelines that only reduce over results should use StitchEach
// directly and keep the coordinator's O(index) memory bound.
func (c *Coordinator) Stitch() (*runner.Sweep, error) {
	out := make([]runner.JobResult, 0, len(c.jobs))
	if err := c.StitchEach(func(jr *runner.JobResult) error {
		out = append(out, *jr)
		return nil
	}); err != nil {
		return nil, err
	}
	sw := &runner.Sweep{Spec: c.cfg.Spec, Jobs: out}
	if c.cfg.Telemetry != nil {
		sw.Metrics = c.cfg.Telemetry.Snapshot(nil)
	}
	return sw, nil
}

// --- HTTP handlers ---

// writeJSON writes v as the response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// httpError writes a JSON error with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (c *Coordinator) handleSpec(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, SpecDesc{
		Name:             c.cfg.SpecName,
		Params:           c.cfg.Params,
		SweepFingerprint: c.fp,
		Jobs:             len(c.jobs),
		Units:            len(c.units),
		LeaseTTLMs:       c.cfg.LeaseTTL.Milliseconds(),
		Trace:            c.cfg.TraceLog != nil,
		TraceSteps:       c.cfg.TraceSteps,
		Cache:            c.cfg.Cache != nil,
		Git:              c.git,
		GoVersion:        runtime.Version(),
	})
}

// decodeBody decodes a capped JSON request body into v, distinguishing
// an over-cap body (ErrBodyTooLarge, 413, terminal for the worker) from
// bytes that did not parse (ErrCorruptPayload, 422, retryable — the
// next delivery may arrive intact). corrupt reports which rejection was
// written when ok is false. An unknown key counts as corruption: worker
// and coordinator are one build, so such a key is a flipped byte, and
// in the key of a zero-valued field it would otherwise decode to the
// very record that was sent and pass its checksum.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) (ok, corrupt bool) {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "%v: limit %d bytes", ErrBodyTooLarge, tooBig.Limit)
			return false, false
		}
		httpError(w, http.StatusUnprocessableEntity, "%v: %v", ErrCorruptPayload, err)
		return false, true
	}
	return true, false
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if ok, _ := decodeBody(w, r, maxControlBytes, &req); !ok {
		return
	}
	if req.SweepFingerprint != c.fp {
		httpError(w, http.StatusConflict,
			"fabric: worker expansion %s does not match sweep %s (mismatched binary, flags, or seed)",
			req.SweepFingerprint, c.fp)
		return
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.benched[req.Worker] {
		httpError(w, http.StatusForbidden, "%v: worker %s", ErrWorkerQuarantined, req.Worker)
		return
	}
	c.workers[req.Worker] = now
	c.reap(now)
	select {
	case <-c.done:
		// The worker exits on this reply; drop it from the live set so
		// Drain knows it has been told.
		delete(c.workers, req.Worker)
		writeJSON(w, LeaseReply{Done: true})
		return
	default:
	}
	var pick *unit
	for _, u := range c.units {
		if u.state == unitPending && !now.Before(u.notBefore) {
			pick = u
			break
		}
	}
	if pick == nil {
		writeJSON(w, LeaseReply{WaitMs: leasePollWait.Milliseconds()})
		return
	}
	c.leaseSeq++
	pick.state = unitLeased
	pick.lease = c.leaseSeq
	pick.worker = req.Worker
	pick.expires = now.Add(c.cfg.LeaseTTL)
	c.byLease[pick.lease] = pick
	c.cGranted.Inc()
	c.journalLease("grant", pick)
	fps := make([]string, len(pick.jobs))
	for i, idx := range pick.jobs {
		fps[i] = c.fps[idx]
	}
	writeJSON(w, LeaseReply{
		Lease:        pick.lease,
		Unit:         pick.id,
		Jobs:         pick.jobs,
		Fingerprints: fps,
		TTLMs:        c.cfg.LeaseTTL.Milliseconds(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if ok, _ := decodeBody(w, r, maxControlBytes, &req); !ok {
		return
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[req.Worker] = now
	u := c.byLease[req.Lease]
	if u == nil || u.state != unitLeased || u.worker != req.Worker {
		writeJSON(w, HeartbeatReply{OK: false})
		return
	}
	u.expires = now.Add(c.cfg.LeaseTTL)
	writeJSON(w, HeartbeatReply{OK: true, TTLMs: c.cfg.LeaseTTL.Milliseconds()})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if ok, corrupt := decodeBody(w, r, c.cfg.MaxCompleteBytes, &req); !ok {
		if corrupt {
			// A completion that does not even parse is in-transit
			// corruption, same as a checksum mismatch.
			c.cCorrupt.Inc()
		}
		return
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[req.Worker] = now

	// Idempotency: a torn response or a duplicated delivery makes the
	// worker re-send the same logical completion (same RequestID). The
	// first processing's reply is cached and replayed verbatim — the
	// records were already accepted, so re-processing them would only
	// inflate the duplicate counters.
	key := completionKey{unit: req.Unit, lease: req.Lease, reqID: req.RequestID}
	if req.RequestID != 0 {
		if cached, ok := c.seen[key]; ok {
			rep := *cached
			rep.Replayed = true
			select {
			case <-c.done:
				rep.Done = true
				delete(c.workers, req.Worker)
			default:
			}
			c.cReplayed.Inc()
			writeJSON(w, rep)
			return
		}
	}

	// Validate everything before accepting anything: a fingerprint
	// mismatch means a drifted binary, and none of its results can be
	// trusted.
	for _, rec := range req.Records {
		if rec == nil || rec.Index < 0 || rec.Index >= len(c.jobs) {
			httpError(w, http.StatusBadRequest, "fabric: completion with out-of-range job index")
			return
		}
		if rec.Fingerprint != c.fps[rec.Index] {
			httpError(w, http.StatusConflict,
				"fabric: record for job %d has fingerprint %s, this sweep has %s (mismatched binary or spec)",
				rec.Index, rec.Fingerprint, c.fps[rec.Index])
			return
		}
	}
	// Payload checksums: recompute each record's FNV sum from what was
	// decoded and compare against what the worker computed before the
	// bytes hit the wire. A mismatch is in-transit corruption — reject
	// the whole completion as retryable; an intact re-send will land.
	if len(req.Sums) > 0 {
		if len(req.Sums) != len(req.Records) {
			c.cCorrupt.Inc()
			httpError(w, http.StatusUnprocessableEntity,
				"%v: %d checksums for %d records", ErrCorruptPayload, len(req.Sums), len(req.Records))
			return
		}
		for k, rec := range req.Records {
			sum, err := runner.ChecksumRecord(rec)
			if err != nil {
				httpError(w, http.StatusInternalServerError, "fabric: checksum record %d: %v", k, err)
				return
			}
			if sum != req.Sums[k] {
				c.cCorrupt.Inc()
				httpError(w, http.StatusUnprocessableEntity,
					"%v: record %d (job %d) sums %s on the wire, %s as sent",
					ErrCorruptPayload, k, rec.Index, sum, req.Sums[k])
				return
			}
		}
	}
	rep := CompleteReply{}
	fresh := make([]*runner.JournalRecord, 0, len(req.Records))
	taken := make(map[int]bool, len(req.Records))
	for _, rec := range req.Records {
		if c.store.Has(rec.Index) || taken[rec.Index] {
			// A reassigned unit finishing twice: first completion wins,
			// so stitching stays deterministic.
			rep.Duplicates++
			c.cDuplicates.Inc()
			continue
		}
		taken[rec.Index] = true
		fresh = append(fresh, rec)
	}
	// Journal first, index second: records the journal failed to take
	// are never indexed, so a retry can land them. The completion's
	// records append together, in one write and fsync.
	at := make([]runner.JournalPos, len(fresh))
	if c.jnl != nil && len(fresh) > 0 {
		var err error
		if at, err = c.jnl.Append(fresh...); err != nil {
			httpError(w, http.StatusInternalServerError, "fabric: journal append: %v", err)
			return
		}
	}
	for k, rec := range fresh {
		c.store.Put(rec.Index, rec, at[k])
		rep.Accepted++
		c.cRecords.Inc()
		c.publishCache(rec.Index, rec)
	}
	// Mark any units this completion finished (normally req.Unit, but a
	// restarted coordinator may have resharded state, so recheck all
	// non-done units touched by these records).
	touched := map[int]bool{}
	for _, rec := range req.Records {
		touched[rec.Index] = true
	}
	for _, u := range c.units {
		if u.state == unitDone || u.state == unitQuarantined {
			continue
		}
		hit := false
		for _, i := range u.jobs {
			if touched[i] {
				hit = true
				break
			}
		}
		if hit && c.unitComplete(u) {
			if u.state == unitLeased {
				delete(c.byLease, u.lease)
			}
			u.state = unitDone
		}
	}
	c.refreshGauges()
	c.checkDone()
	if req.RequestID != 0 {
		// Cache the outcome (Done is recomputed per delivery) so a
		// duplicated or retried delivery replays instead of re-counting.
		cached := rep
		c.seen[key] = &cached
	}
	select {
	case <-c.done:
		rep.Done = true
		// The worker exits on a Done completion reply, like on a Done
		// lease reply; drop it from the live set for Drain.
		delete(c.workers, req.Worker)
	default:
	}
	writeJSON(w, rep)
}

func (c *Coordinator) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	p := c.progressLocked()
	c.mu.Unlock()
	writeJSON(w, p)
}

// handleCache serves the shared result cache's wire form so joining
// workers inherit every collected result; without a cache it reports
// 404 and workers simply run everything.
func (c *Coordinator) handleCache(w http.ResponseWriter, r *http.Request) {
	if c.cfg.Cache == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	c.cfg.Cache.Save(w)
}
