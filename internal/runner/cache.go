package runner

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strconv"
	"sync"
	"time"

	"evclimate/internal/sim"
)

// Cache is an opt-in, concurrency-safe result cache keyed by the job
// fingerprint: a hash of the full scenario (controller identity, sim
// parameters including the fault seed, and profile contents), not of the
// job's position in its sweep. Repeated sweeps — e.g. re-rendering
// Table I after a weights change — skip unchanged cells, and so does a
// sweep that repeats another's cell at a different index. The cache
// lives in memory only: a journaled sweep puts every result it replays
// into it, so a resumed invocation re-serves earlier sweeps' cells from
// their build-checked journals. Cached results are shared pointers and
// must be treated as read-only.
type Cache struct {
	mu           sync.Mutex
	m            map[uint64]cacheEntry
	hits, misses int
	saved        time.Duration
}

// cacheEntry pairs a result with the wall-clock its simulation cost, so
// hits can report how much time they saved.
type cacheEntry struct {
	res     *sim.Result
	elapsed time.Duration
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{m: make(map[uint64]cacheEntry)}
}

func (c *Cache) get(key uint64) (*sim.Result, time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if ok {
		c.hits++
		c.saved += e.elapsed
	} else {
		c.misses++
	}
	return e.res, e.elapsed, ok
}

// Put inserts a result under its scenario fingerprint with the
// wall-clock its simulation cost. The pool puts every result it
// simulates or replays from a journal, and the fabric coordinator every
// successful completion, so later hits on the same fingerprint — a
// repeated cell, a reassigned unit, a joining worker — skip the
// simulation entirely. Results are shared pointers; callers must treat
// them as read-only after insertion.
func (c *Cache) Put(key uint64, res *sim.Result, elapsed time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = cacheEntry{res: res, elapsed: elapsed}
}

// Stats returns the hit/miss counters and the number of cached cells.
func (c *Cache) Stats() (hits, misses, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.m)
}

// Saved returns the cumulative wall-clock that cache hits avoided
// re-spending: the sum of the original execution times of every hit.
func (c *Cache) Saved() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saved
}

// cacheFileVersion is the cache wire schema; Load discards payloads
// written by a different schema. Version 2 carries each result's trace
// in its packed wire form (sim.Trace.MarshalText).
const cacheFileVersion = 2

// cacheFile is the wire form of a Cache: results keyed by their
// scenario fingerprint in hex. Invalidation is inherent in the key —
// any spec, seed, or profile change produces a new fingerprint, so
// stale entries are simply never hit.
type cacheFile struct {
	Version int                       `json:"version"`
	Entries map[string]cacheFileEntry `json:"entries"`
}

type cacheFileEntry struct {
	Result    *sim.Result `json:"result"`
	ElapsedNs int64       `json:"elapsed_ns"`
}

// Save writes the cache's content-addressed JSON wire form to w. It is
// the payload the fabric's /cache
// endpoint serves, so a worker joining a sweep inherits every result
// the coordinator has already collected.
func (c *Cache) Save(w io.Writer) error {
	c.mu.Lock()
	cf := cacheFile{Version: cacheFileVersion, Entries: make(map[string]cacheFileEntry, len(c.m))}
	for k, e := range c.m {
		cf.Entries[fmt.Sprintf("%016x", k)] = cacheFileEntry{Result: e.res, ElapsedNs: int64(e.elapsed)}
	}
	c.mu.Unlock()
	return json.NewEncoder(w).Encode(&cf)
}

// Load merges a cache wire form read from r into this one. Unreadable
// or version-mismatched payloads are discarded wholesale — a cache can
// always be rebuilt, so suspicion means invalidation, never failure.
// Existing entries win over incoming ones.
func (c *Cache) Load(r io.Reader) error {
	var cf cacheFile
	if err := json.NewDecoder(r).Decode(&cf); err != nil {
		return nil
	}
	if cf.Version != cacheFileVersion {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range cf.Entries {
		key, err := strconv.ParseUint(k, 16, 64)
		if err != nil || e.Result == nil {
			continue
		}
		if _, ok := c.m[key]; !ok {
			c.m[key] = cacheEntry{res: e.Result, elapsed: time.Duration(e.ElapsedNs)}
		}
	}
	return nil
}

// Fingerprint hashes everything that determines the job's outcome: the
// controller label/key, every scalar field of the sim configuration, and
// the complete profile contents. Two jobs with equal fingerprints
// simulate identical scenarios. Job.Seed is left out: it reaches the
// outcome only as Config.FaultSeed, which the configuration covers, so
// one scenario keeps one fingerprint wherever a sweep places it.
func (j *Job) Fingerprint() uint64 {
	h := fnv.New64a()
	io.WriteString(h, j.Controller.Label)
	io.WriteString(h, "\x00")
	io.WriteString(h, j.Controller.Key)
	// The scalar configuration, minus pointer-valued fields: pointers
	// would print as addresses and change on every expansion, so their
	// contents are hashed separately below.
	cfg := j.Config
	cfg.Profile = nil
	eff := cfg.Powertrain.Efficiency
	cfg.Powertrain.Efficiency = nil
	flt := cfg.Faults
	cfg.Faults = nil
	th := cfg.Thermal
	cfg.Thermal = nil
	// Telemetry never changes the simulated trajectory, and a sink's %+v
	// would print pointer addresses — fingerprints must not depend on it.
	cfg.Telemetry = nil
	fmt.Fprintf(h, "\x00%+v", cfg)
	if !flt.Empty() {
		// The fault spec is pure data; its %+v prints the full schedule.
		fmt.Fprintf(h, "\x00faults:%+v", *flt)
	}
	if th != nil {
		// The thermal-network config is pure data.
		fmt.Fprintf(h, "\x00thermal:%+v", *th)
	}

	var buf [8]byte
	word := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	if eff != nil {
		word(eff.RatedPowerW)
		for _, v := range eff.SpeedsMs {
			word(v)
		}
		for _, v := range eff.LoadFracs {
			word(v)
		}
		for _, row := range eff.Eta {
			for _, v := range row {
				word(v)
			}
		}
	}

	p := j.Config.Profile
	fmt.Fprintf(h, "\x00%s\x00%d\x00", p.Name, len(p.Samples))
	word(p.Dt)
	for i := range p.Samples {
		s := &p.Samples[i]
		word(s.Time)
		word(s.Speed)
		word(s.Accel)
		word(s.SlopePercent)
		word(s.AmbientC)
		word(s.SolarW)
		word(s.WindMs)
	}
	return h.Sum64()
}
