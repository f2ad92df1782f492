// Package fabric is the distributed sweep fabric: a crash-tolerant
// coordinator/worker split over the journaled runner, so one sweep spec
// executes across processes and machines and survives any single node
// dying.
//
// The coordinator expands a runner.Spec, shards the jobs by FNV
// scenario fingerprint into leased work units, and serves them over an
// HTTP+JSON protocol (/spec, /lease, /heartbeat, /complete, /snapshot,
// /cache). Workers rebuild the identical spec locally from a shared
// builder registry — function-valued spec fields cannot travel over the
// wire, so the protocol ships job indexes and fingerprints, never jobs —
// run their leased units through the ordinary pool (watchdog and retry
// included), and stream back journal-form records carrying each job's
// result, step spans, and private metric snapshot.
//
// Failure semantics:
//
//   - Worker death: its lease expires (heartbeats stop), the unit is
//     reclaimed after a seeded-jitter backoff and reassigned.
//   - Coordinator death: every lease/completion is journaled through the
//     runner's append-only journal format; a restarted coordinator
//     resumes from the journal and accepts in-flight completions from
//     workers it never leased to (validated by fingerprint, deduplicated
//     by job index).
//   - Poisoned unit: a unit whose lease is lost on K distinct workers is
//     quarantined instead of wedging the sweep; its jobs report
//     ErrUnitQuarantined.
//
// Determinism is the contract: stitching completed units in expansion
// order produces byte-identical traces, metrics, and manifests for any
// worker x machine topology — including topologies where workers were
// killed and units reassigned mid-run (see TestFabricTopologyDeterminism
// and the chaos test).
package fabric

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"evclimate/internal/runner"
)

// ErrSpecMismatch reports a worker whose locally built spec does not
// expand to the sweep the coordinator is serving — a different binary,
// flag set, or seed. Running such a worker would stitch results from
// two different experiments, so the join is refused.
var ErrSpecMismatch = errors.New("fabric: worker spec does not match coordinator sweep")

// ErrUnitQuarantined marks the jobs of a work unit that failed on too
// many distinct workers and was quarantined so the rest of the sweep
// could finish.
var ErrUnitQuarantined = errors.New("fabric: unit quarantined (lease lost on too many distinct workers)")

// ErrCorruptPayload reports a completion whose record bytes failed the
// FNV payload checksum (or did not parse at all) — in-transit
// corruption. The rejection is retryable: the worker re-marshals and
// re-sends, and an intact delivery is accepted.
var ErrCorruptPayload = errors.New("fabric: completion payload corrupt in transit")

// ErrBodyTooLarge reports a request body over the coordinator's cap.
// Unlike corruption it is terminal for the worker: the same body would
// be rejected again, so retrying cannot help.
var ErrBodyTooLarge = errors.New("fabric: request body exceeds coordinator cap")

// ErrWorkerQuarantined reports a worker the flap breaker has benched:
// its leases died mid-flight too many times (a flapping link or a
// wedged host), so the coordinator stops granting it work rather than
// let it keep churning units toward unit quarantine.
var ErrWorkerQuarantined = errors.New("fabric: worker quarantined (leases repeatedly lost mid-flight)")

// SpecBuilder constructs a sweep spec from wire parameters. Builders
// must be pure: the same params always produce a spec that expands to
// the same jobs, or coordinator and worker cannot agree on the work.
type SpecBuilder func(params map[string]string) (runner.Spec, error)

// Registry maps spec names to builders — the contract that lets a
// joining worker reconstruct the coordinator's job list locally. Both
// sides must register the same builders (they normally share a binary).
type Registry struct {
	mu sync.Mutex
	m  map[string]SpecBuilder
}

// NewSpecRegistry returns an empty builder registry.
func NewSpecRegistry() *Registry {
	return &Registry{m: make(map[string]SpecBuilder)}
}

// Register adds a named builder (last registration wins).
func (r *Registry) Register(name string, b SpecBuilder) {
	r.mu.Lock()
	r.m[name] = b
	r.mu.Unlock()
}

// Build constructs the named spec from wire parameters.
func (r *Registry) Build(name string, params map[string]string) (runner.Spec, error) {
	r.mu.Lock()
	b := r.m[name]
	r.mu.Unlock()
	if b == nil {
		return runner.Spec{}, fmt.Errorf("%w: this binary has no spec builder %q (mismatched binaries?)", ErrSpecMismatch, name)
	}
	return b(params)
}

// SpecDesc is /spec's response: everything a worker needs to rebuild
// and verify the sweep, plus the lease parameters it must honor.
type SpecDesc struct {
	// Name and Params select the builder in the worker's registry.
	Name   string            `json:"name"`
	Params map[string]string `json:"params,omitempty"`
	// SweepFingerprint is the coordinator expansion's identity; the
	// worker's local expansion must hash identically.
	SweepFingerprint string `json:"sweep_fingerprint"`
	// Jobs and Units describe the sharding.
	Jobs  int `json:"jobs"`
	Units int `json:"units"`
	// LeaseTTLMs is the heartbeat deadline workers must renew within.
	LeaseTTLMs int64 `json:"lease_ttl_ms"`
	// Trace, when true, asks workers to collect step spans into their
	// records (TraceSteps caps each job's ring; 0 = default).
	Trace      bool `json:"trace,omitempty"`
	TraceSteps int  `json:"trace_steps,omitempty"`
	// Cache, when true, means the coordinator runs the shared
	// content-addressed result cache (/cache is live). Workers only use
	// their local caches when the coordinator does: a cache hit skips
	// the simulation and emits no per-step series, so cache mode and
	// full-fidelity (trace/metrics) mode must not be mixed per-node.
	Cache bool `json:"cache,omitempty"`
	// Git and GoVersion stamp the coordinator's build; a worker built
	// differently refuses to join (results must not mix builds).
	Git       string `json:"git"`
	GoVersion string `json:"go_version"`
}

// LeaseRequest asks for one work unit.
type LeaseRequest struct {
	// Worker is the requester's self-reported stable identity.
	Worker string `json:"worker"`
	// SweepFingerprint is the worker's local expansion hash; leases are
	// only granted when it matches the coordinator's.
	SweepFingerprint string `json:"sweep_fingerprint"`
}

// LeaseReply grants a unit, asks the worker to wait, or reports the
// sweep done.
type LeaseReply struct {
	// Done: every unit is complete (or quarantined); the worker should
	// exit its lease loop.
	Done bool `json:"done,omitempty"`
	// WaitMs, when positive, means nothing is leasable right now (units
	// in flight or backing off); poll again after this long.
	WaitMs int64 `json:"wait_ms,omitempty"`
	// Lease is the grant's id, echoed in heartbeats and completion.
	Lease uint64 `json:"lease,omitempty"`
	// Unit is the granted unit's index.
	Unit int `json:"unit"`
	// Jobs are the unit's job indexes in the expansion.
	Jobs []int `json:"jobs,omitempty"`
	// Fingerprints are the coordinator's per-job scenario fingerprints
	// (hex), aligned with Jobs — the worker cross-checks its own
	// expansion before simulating anything.
	Fingerprints []string `json:"fingerprints,omitempty"`
	// TTLMs is the lease's heartbeat deadline.
	TTLMs int64 `json:"ttl_ms,omitempty"`
}

// HeartbeatRequest renews a lease.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	Lease  uint64 `json:"lease"`
}

// HeartbeatReply acknowledges a renewal. OK=false means the lease
// expired and was reclaimed — the worker should abandon the unit.
type HeartbeatReply struct {
	OK    bool  `json:"ok"`
	TTLMs int64 `json:"ttl_ms,omitempty"`
}

// CompleteRequest streams a finished unit's records back.
type CompleteRequest struct {
	Worker string `json:"worker"`
	Lease  uint64 `json:"lease"`
	Unit   int    `json:"unit"`
	// RequestID identifies this logical completion across deliveries:
	// the worker derives it deterministically from (worker, lease,
	// unit), so a duplicated or retried delivery carries the same id
	// and the coordinator replays its original reply instead of
	// re-processing the records.
	RequestID uint64 `json:"request_id,omitempty"`
	// Records are the unit's journal-form job records, exactly what the
	// runner's journal mode would have appended locally.
	Records []*runner.JournalRecord `json:"records"`
	// Sums are FNV-1a checksums over each record's canonical JSON
	// (runner.ChecksumRecord), index-aligned with Records. The
	// coordinator recomputes them from what it decoded; a mismatch is
	// in-transit corruption and the whole completion is rejected.
	Sums []string `json:"sums,omitempty"`
}

// CompleteReply reports how many records were accepted; duplicates (a
// reassigned unit completed twice) are counted, not errors.
type CompleteReply struct {
	Accepted   int  `json:"accepted"`
	Duplicates int  `json:"duplicates"`
	Done       bool `json:"done,omitempty"`
	// Replayed marks a reply served from the idempotency cache: the
	// same RequestID already landed, so this delivery changed nothing.
	Replayed bool `json:"replayed,omitempty"`
}

// Progress is /snapshot's response: the coordinator's live state.
type Progress struct {
	SweepFingerprint string `json:"sweep_fingerprint"`
	Jobs             int    `json:"jobs"`
	Completed        int    `json:"completed"`
	Failed           int    `json:"failed"`
	Units            int    `json:"units"`
	UnitsDone        int    `json:"units_done"`
	UnitsLeased      int    `json:"units_leased"`
	UnitsQuarantined int    `json:"units_quarantined"`
	WorkersLive      int    `json:"workers_live"`
	// WorkersQuarantined counts workers the flap breaker has benched.
	WorkersQuarantined int  `json:"workers_quarantined,omitempty"`
	Done               bool `json:"done"`
}

// shardUnits shards job indexes into units by FNV scenario fingerprint
// (fps, runner.Fingerprints): job i lands in unit fps[i] mod n, with n
// sized so units hold about unitSize jobs. Sharding is content-addressed
// — two expansions of the same spec shard identically, whatever machine
// computes them — and each unit's job list stays sorted in expansion
// order.
func shardUnits(fps []uint64, unitSize int) [][]int {
	if unitSize <= 0 {
		unitSize = DefaultUnitSize
	}
	n := (len(fps) + unitSize - 1) / unitSize
	if n < 1 {
		n = 1
	}
	units := make([][]int, n)
	for i, fp := range fps {
		u := int(fp % uint64(n))
		units[u] = append(units[u], i)
	}
	// Drop empty shards (fingerprints are uniform but not perfect) and
	// keep a deterministic unit order.
	out := units[:0]
	for _, u := range units {
		if len(u) > 0 {
			sort.Ints(u)
			out = append(out, u)
		}
	}
	return out
}
