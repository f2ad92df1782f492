package fabric

import "evclimate/internal/runner"

// storedRecord is what the coordinator keeps per completed job: the
// record itself, or, in a spilling store, only where the journal holds
// it (~32 bytes).
type storedRecord struct {
	rec    *runner.JournalRecord // nil when spilled
	at     runner.JournalPos
	failed bool
}

// recordStore is the coordinator's completed-record collection. By
// default it holds every record in memory. A spilling store
// (CoordinatorConfig.Spill) keeps only each record's journal position
// and reads the record back from the journal on Get, so coordinator RSS
// is O(index), not O(records). The coordinator's mutex serializes all
// access.
type recordStore struct {
	jnl    *runner.Journal // non-nil: spill, records are read back from here
	m      map[int]storedRecord
	failed int
}

// newRecordStore returns an in-memory store, or a spilling one reading
// back from jnl when jnl is non-nil.
func newRecordStore(jnl *runner.Journal) *recordStore {
	return &recordStore{jnl: jnl, m: make(map[int]storedRecord)}
}

// Put stores the record for a job index, which the journal holds at at
// when the store spills (overwriting any previous record).
func (s *recordStore) Put(i int, rec *runner.JournalRecord, at runner.JournalPos) {
	if s.m[i].failed {
		s.failed--
	}
	e := storedRecord{at: at, failed: rec.Err != ""}
	if s.jnl == nil {
		e.rec = rec
	}
	if e.failed {
		s.failed++
	}
	s.m[i] = e
}

// Get loads the record for a job index, or nil when absent.
func (s *recordStore) Get(i int) (*runner.JournalRecord, error) {
	e, ok := s.m[i]
	switch {
	case !ok:
		return nil, nil
	case e.rec != nil:
		return e.rec, nil
	}
	return s.jnl.ReadRecord(e.at)
}

// Has reports whether a record exists for the index without loading it.
func (s *recordStore) Has(i int) bool { _, ok := s.m[i]; return ok }

// Len is the number of stored records.
func (s *recordStore) Len() int { return len(s.m) }

// Failed is the number of stored records with a non-empty Err.
func (s *recordStore) Failed() int { return s.failed }
