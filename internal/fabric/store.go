package fabric

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"evclimate/internal/runner"
)

// DefaultSpillSegmentBytes is the spill store's segment rotation
// threshold.
const DefaultSpillSegmentBytes = 64 << 20

// SpillConfig enables the coordinator's disk-spilling record store:
// completed job records are appended to spill segments on disk and
// only a compact per-job index (segment, offset, length, failure flag)
// stays in memory, so coordinator RSS is O(index), not O(records) —
// a cluster-scale sweep streams through a coordinator whose memory no
// longer grows with the payload it collects.
type SpillConfig struct {
	// Dir holds the spill segments; created if missing. Segments are
	// scratch — the journal (when configured) is the durable record —
	// and are removed when the coordinator closes.
	Dir string
	// SegmentBytes rotates the active segment past this size
	// (0 = DefaultSpillSegmentBytes).
	SegmentBytes int64
}

// recordStore is the coordinator's completed-record collection. The
// coordinator's mutex serializes all access; implementations need no
// locking of their own.
type recordStore interface {
	// Put stores the record for a job index (overwriting any previous).
	Put(i int, rec *runner.JournalRecord) error
	// Get loads the record for a job index, or nil when absent.
	Get(i int) (*runner.JournalRecord, error)
	// Has reports whether a record exists for the index without
	// loading it.
	Has(i int) bool
	// Delete forgets the record for an index (journal-append backout).
	Delete(i int)
	// Len is the number of stored records.
	Len() int
	// Failed is the number of stored records with a non-empty Err.
	Failed() int
	// Close releases the store's resources.
	Close() error
}

// memStore holds every record in memory — the default, exactly the
// pre-spill coordinator behavior.
type memStore struct {
	m      map[int]*runner.JournalRecord
	failed int
}

func newMemStore() *memStore { return &memStore{m: make(map[int]*runner.JournalRecord)} }

func (s *memStore) Put(i int, rec *runner.JournalRecord) error {
	if old := s.m[i]; old != nil && old.Err != "" {
		s.failed--
	}
	if rec.Err != "" {
		s.failed++
	}
	s.m[i] = rec
	return nil
}

func (s *memStore) Get(i int) (*runner.JournalRecord, error) { return s.m[i], nil }
func (s *memStore) Has(i int) bool                           { return s.m[i] != nil }

func (s *memStore) Delete(i int) {
	if old := s.m[i]; old != nil {
		if old.Err != "" {
			s.failed--
		}
		delete(s.m, i)
	}
}

func (s *memStore) Len() int     { return len(s.m) }
func (s *memStore) Failed() int  { return s.failed }
func (s *memStore) Close() error { return nil }

// spillEntry locates one record inside the spill segments — the only
// per-record state the spill store keeps in memory (~32 bytes).
type spillEntry struct {
	seg    int32
	length int32
	off    int64
	failed bool
}

// spillStore appends record payloads to rotating disk segments and
// keeps a compact in-memory index. Records read back byte-identical
// (JSON round trip); random access uses ReadAt, so streaming Stitch in
// expansion order touches one record at a time.
type spillStore struct {
	dir      string
	segBytes int64

	index  map[int]spillEntry
	segs   []*os.File // every segment, open for ReadAt; last is active
	active int64      // active segment's current size
	failed int
	// spilled tallies payload bytes written, for telemetry/tests.
	spilled int64
}

// newSpillStore creates the spill directory and its first segment.
func newSpillStore(cfg SpillConfig) (*spillStore, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	segBytes := cfg.SegmentBytes
	if segBytes <= 0 {
		segBytes = DefaultSpillSegmentBytes
	}
	s := &spillStore{
		dir:      cfg.Dir,
		segBytes: segBytes,
		index:    make(map[int]spillEntry),
	}
	if err := s.rotate(); err != nil {
		return nil, err
	}
	return s, nil
}

// segPath names segment n.
func (s *spillStore) segPath(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf("spill-%06d.seg", n))
}

// rotate opens the next append segment.
func (s *spillStore) rotate() error {
	f, err := os.OpenFile(s.segPath(len(s.segs)), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	s.segs = append(s.segs, f)
	s.active = 0
	return nil
}

func (s *spillStore) Put(i int, rec *runner.JournalRecord) error {
	return runner.WriteJSONLine(rec, func(data []byte) error {
		if s.active > 0 && s.active+int64(len(data)) > s.segBytes {
			if err := s.rotate(); err != nil {
				return err
			}
		}
		seg := len(s.segs) - 1
		f := s.segs[seg]
		off := s.active
		if _, err := f.WriteAt(data, off); err != nil {
			return err
		}
		s.active += int64(len(data))
		s.spilled += int64(len(data))
		if old, ok := s.index[i]; ok && old.failed {
			s.failed--
		}
		e := spillEntry{seg: int32(seg), off: off, length: int32(len(data)), failed: rec.Err != ""}
		if e.failed {
			s.failed++
		}
		s.index[i] = e
		return nil
	})
}

func (s *spillStore) Get(i int) (*runner.JournalRecord, error) {
	e, ok := s.index[i]
	if !ok {
		return nil, nil
	}
	buf := make([]byte, e.length)
	if _, err := s.segs[e.seg].ReadAt(buf, e.off); err != nil {
		return nil, fmt.Errorf("fabric: spill read job %d: %w", i, err)
	}
	rec := new(runner.JournalRecord)
	if err := json.Unmarshal(buf, rec); err != nil {
		return nil, fmt.Errorf("fabric: spill decode job %d: %w", i, err)
	}
	return rec, nil
}

func (s *spillStore) Has(i int) bool { _, ok := s.index[i]; return ok }

func (s *spillStore) Delete(i int) {
	if e, ok := s.index[i]; ok {
		if e.failed {
			s.failed--
		}
		delete(s.index, i) // the spilled bytes become unreferenced garbage
	}
}

func (s *spillStore) Len() int    { return len(s.index) }
func (s *spillStore) Failed() int { return s.failed }

// Close closes and removes the spill segments (scratch data; the
// journal is the durable record).
func (s *spillStore) Close() error {
	var first error
	for i, f := range s.segs {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		if err := os.Remove(s.segPath(i)); err != nil && first == nil {
			first = err
		}
	}
	s.segs = nil
	return first
}
