package runner

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"evclimate/internal/sim"
	"evclimate/internal/telemetry"
)

// JournalVersion is the journal schema version; resuming refuses
// journals written by a different schema. Version 2 carries each
// result's trace in sim.Trace's packed wire form (float64 bits in
// base64) instead of one JSON number per value.
const JournalVersion = 2

// ErrJournalMismatch reports a journal whose header does not describe
// the sweep being resumed — a different spec, seed, schema, or build.
// Resuming such a journal would stitch results from two different
// experiments, so the pool refuses with a hard, typed error (never a
// silent re-run); every wrapped message carries a remediation hint.
var ErrJournalMismatch = errors.New("runner: journal does not match this sweep")

// JournalConfig enables the crash-safe job journal on a sweep: an
// append-only JSONL write-ahead log recording each job's fingerprint,
// seed, and result as it completes, so an interrupted sweep can resume
// and skip finished work.
type JournalConfig struct {
	// Dir is the directory holding the journal (and any mid-job
	// checkpoint files); created if missing.
	Dir string
	// Resume allows continuing an existing journal. Without it, a
	// pre-existing journal for the same sweep is an error — silently
	// overwriting finished work is never the right default.
	Resume bool
	// FsyncEvery is the fsync cadence in records (≤ 0 = every record).
	// Larger values trade the tail of the journal on a hard crash for
	// less write amplification.
	FsyncEvery int
	// CheckpointEvery, when positive, checkpoints each in-flight job's
	// simulation state every CheckpointEvery control steps so a resumed
	// sweep continues interrupted jobs mid-cycle instead of restarting
	// them.
	CheckpointEvery int
	// Git overrides the code-version stamp in the journal header
	// (default telemetry.GitDescribe("")). Resume refuses a journal
	// whose stamp differs — results from two code versions must not be
	// stitched together.
	Git string
}

// JournalHeader is the journal's first record: the identity of the
// sweep it belongs to. Resume validates every field.
type JournalHeader struct {
	Kind    string `json:"kind"` // "header"
	Version int    `json:"version"`
	// Label is the sweep's manifest label.
	Label string `json:"label,omitempty"`
	// SweepFingerprint hashes every job fingerprint in expansion order
	// (see SweepFingerprint), rendered as fixed-width hex.
	SweepFingerprint string `json:"sweep_fingerprint"`
	// Git is the code version that wrote the journal.
	Git string `json:"git"`
	// GoVersion is the writing toolchain.
	GoVersion string `json:"go_version"`
	// Jobs is the expansion's job count.
	Jobs int `json:"jobs"`
}

// JournalRecord is one completed job: enough to replay the job's
// result, step spans, and metric contribution without re-simulating.
// Failed jobs are journaled too (Err set, Result nil) for diagnostics,
// but resume re-runs them. The result's trace is one packed string (see
// sim.Trace), so a record's size is dominated by 8 bytes per trace
// value, base64-encoded.
type JournalRecord struct {
	Kind        string               `json:"kind"` // "job"
	Index       int                  `json:"index"`
	Fingerprint string               `json:"fingerprint"`
	Seed        int64                `json:"seed"`
	Attempts    int                  `json:"attempts,omitempty"`
	Cached      bool                 `json:"cached,omitempty"`
	ElapsedNs   int64                `json:"elapsed_ns"`
	Err         string               `json:"err,omitempty"`
	Result      *sim.Result          `json:"result,omitempty"`
	Spans       []telemetry.StepSpan `json:"spans,omitempty"`
	// Metrics is the job's private registry snapshot; replay merges it
	// into the sweep registry so resumed manifests match uninterrupted
	// ones.
	Metrics telemetry.Snapshot `json:"metrics,omitempty"`
}

// ChecksumRecord returns the FNV-1a hash of the record's canonical
// JSON form as fixed-width hex — the payload integrity check the
// fabric's completion protocol runs over the wire. The hash is
// representation-stable: Go's encoder emits struct fields in
// declaration order and shortest-round-trip floats, and the packed
// trace string is canonical (only the encoding of a trace decodes to
// it), so a decoded record re-marshals to the same bytes the sender
// hashed, and any in-transit corruption that changed a value changes
// the sum.
func ChecksumRecord(rec *JournalRecord) (string, error) {
	data, err := json.Marshal(rec)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(data)
	return telemetry.FormatFingerprint(h.Sum64()), nil
}

// LeaseRecord journals one fabric lease event: a unit granted to a
// worker, an expired lease reclaimed, or a unit quarantined. Leases are
// audit and telemetry records — resume correctness derives from job
// records alone (every lease outstanding at crash time is implicitly
// expired by the restart).
type LeaseRecord struct {
	Kind string `json:"kind"` // "lease"
	// Event is "grant", "expire", or "quarantine".
	Event string `json:"event"`
	// Unit is the leased work unit's index.
	Unit int `json:"unit"`
	// Worker is the holding worker's self-reported identity.
	Worker string `json:"worker"`
	// Lease is the coordinator-assigned lease id.
	Lease uint64 `json:"lease"`
}

// JournalPos locates one record's line in the journal file: its byte
// offset and length, the newline included. Journal.Append reports it
// for the record it wrote, ParseJournal for each record it replays, and
// Journal.ReadRecord reads the record back from it.
type JournalPos struct {
	Off int64
	Len int64
}

// JournalReplay is a parsed journal: the header, the latest record per
// job index and where it sits, and whether the final record was torn (a
// crash mid-write).
type JournalReplay struct {
	Header  JournalHeader
	Records map[int]*JournalRecord
	// At locates each of Records in the parsed bytes.
	At map[int]JournalPos
	// Leases are the fabric lease events, in append order.
	Leases []LeaseRecord
	// Torn reports that the final line failed to parse and was dropped.
	Torn bool
	// ValidLen is the byte length of the parseable prefix; resuming
	// truncates the file here before appending.
	ValidLen int64
}

// Fingerprints hashes each job's scenario once, in expansion order. The
// result is the one per-job key list a sweep needs: SweepFingerprint,
// OpenJournal, ManifestRunInfo and the result cache all take it, so a
// caller that holds it never hashes a profile twice.
func Fingerprints(jobs []Job) []uint64 {
	fps := make([]uint64, len(jobs))
	for i := range jobs {
		fps[i] = jobs[i].Fingerprint()
	}
	return fps
}

// SweepFingerprint hashes the job fingerprints fps (see Fingerprints) in
// expansion order — the identity a journal is keyed by. Unlike the
// manifest's run fingerprint it excludes the base seed as a separate
// word; the per-job fingerprints already pin the derived seeds.
func SweepFingerprint(fps []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, fp := range fps {
		binary.LittleEndian.PutUint64(buf[:], fp)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Journal is an append-only JSONL write-ahead log of completed sweep
// jobs. Appends are serialized and fsync'd on the configured cadence;
// a record is durable once its fsync batch lands.
type Journal struct {
	mu         sync.Mutex
	path       string
	f          *os.File
	size       int64 // bytes in the file: where the next record lands
	header     JournalHeader
	fsyncEvery int
	sinceSync  int
	replay     *JournalReplay
}

// journalFileName derives the journal file name from the sweep label
// and fingerprint, so distinct sweeps in one directory never collide.
func journalFileName(label string, fp uint64) string {
	s := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, label)
	if s == "" {
		s = "sweep"
	}
	return fmt.Sprintf("%s-%s.journal", s, telemetry.FormatFingerprint(fp))
}

// OpenJournal creates the journal for a job list, given as its job
// fingerprints (Fingerprints), or resumes an existing one when
// cfg.Resume is set (refusing on any header mismatch). A pre-existing
// journal without Resume is an error. The sweep pool opens its journal
// here; the distributed fabric's coordinator uses the same format (and
// therefore the same resume semantics) for its lease/completion log.
func OpenJournal(cfg *JournalConfig, label string, fps []uint64) (*Journal, error) {
	git := cfg.Git
	if git == "" {
		git = telemetry.GitDescribe("")
	}
	fp := SweepFingerprint(fps)
	h := JournalHeader{
		Kind:             "header",
		Version:          JournalVersion,
		Label:            label,
		SweepFingerprint: telemetry.FormatFingerprint(fp),
		Git:              git,
		GoVersion:        runtime.Version(),
		Jobs:             len(fps),
	}
	path := filepath.Join(cfg.Dir, journalFileName(label, fp))
	if _, err := os.Stat(path); err == nil {
		if !cfg.Resume {
			return nil, fmt.Errorf("runner: journal %s already exists; resume it or remove it to start over", path)
		}
		return resumeJournal(path, h, cfg.FsyncEvery)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	// Resume asked for, but no journal exists under this sweep's
	// fingerprint. If the directory holds journals for the same label
	// under a different fingerprint, the spec, seed, or profile changed
	// since they were written — silently starting a fresh journal here
	// would quietly re-run every finished job, so refuse with the typed
	// mismatch error instead.
	if cfg.Resume {
		if stale := siblingJournals(cfg.Dir, label, path); len(stale) > 0 {
			return nil, fmt.Errorf("%w: no journal for sweep %s in %s, but found %s — "+
				"the spec, seed, or profile changed since that journal was written; "+
				"re-run the original spec to resume it, or drop -resume (or point "+
				"-journal at a fresh directory) to deliberately start over",
				ErrJournalMismatch, h.SweepFingerprint, cfg.Dir, strings.Join(stale, ", "))
		}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	return createJournal(path, h, cfg.FsyncEvery)
}

// siblingJournals lists journals in dir that share a sweep label with
// path but record a different fingerprint — the signature of a -resume
// whose spec drifted from the journaled run.
func siblingJournals(dir, label string, path string) []string {
	prefix := strings.TrimSuffix(filepath.Base(journalFileName(label, 0)), "0000000000000000.journal")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var stale []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, ".journal") &&
			name != filepath.Base(path) {
			stale = append(stale, name)
		}
	}
	return stale
}

// createJournal starts a fresh journal with the given header.
func createJournal(path string, h JournalHeader, fsyncEvery int) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{path: path, f: f, header: h, fsyncEvery: fsyncEvery}
	if err := writeJSONLine(h, func(line []byte) error {
		n, err := f.Write(line)
		j.size = int64(n)
		return err
	}); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// resumeJournal reopens an existing journal for appending after
// validating its header against the sweep being run and truncating any
// torn final record.
func resumeJournal(path string, want JournalHeader, fsyncEvery int) (*Journal, error) {
	rep, err := ReadJournal(path)
	if err != nil {
		return nil, err
	}
	got := rep.Header
	switch {
	case got.Version != want.Version:
		return nil, fmt.Errorf("%w: %s was written by journal schema v%d, this build writes v%d — "+
			"finish the run with the build that wrote it, or remove the journal to start over",
			ErrJournalMismatch, path, got.Version, want.Version)
	case got.SweepFingerprint != want.SweepFingerprint:
		return nil, fmt.Errorf("%w: %s records sweep %s, this spec expands to %s (spec or seed changed) — "+
			"re-run the original spec, or remove the journal to start over",
			ErrJournalMismatch, path, got.SweepFingerprint, want.SweepFingerprint)
	case got.Git != want.Git:
		return nil, fmt.Errorf("%w: %s was written at code version %s, this build is %s — "+
			"results from two builds must not be stitched; check out %s to finish the run, "+
			"or remove the journal to start over on this build",
			ErrJournalMismatch, path, got.Git, want.Git, got.Git)
	case got.GoVersion != want.GoVersion:
		return nil, fmt.Errorf("%w: %s was written by %s, this binary is built with %s — "+
			"floating-point results can differ across toolchains; rebuild with %s to finish "+
			"the run, or remove the journal to start over",
			ErrJournalMismatch, path, got.GoVersion, want.GoVersion, got.GoVersion)
	case got.Jobs != want.Jobs:
		return nil, fmt.Errorf("%w: %s records %d jobs, this sweep has %d — "+
			"re-run the original spec, or remove the journal to start over",
			ErrJournalMismatch, path, got.Jobs, want.Jobs)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	// Drop the torn tail (if any) so appended records start on a clean
	// line; then position at the new end.
	if err := f.Truncate(rep.ValidLen); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(rep.ValidLen, 0); err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{path: path, f: f, size: rep.ValidLen, header: got,
		fsyncEvery: fsyncEvery, replay: rep}, nil
}

// ReadJournal parses a journal file. See ParseJournal.
func ReadJournal(path string) (*JournalReplay, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseJournal(data)
}

// ParseJournal parses journal bytes. A truncated or corrupt final line
// — the signature of a crash mid-append — is tolerated and dropped;
// corruption anywhere else is an error, because silently skipping
// middle records would resurrect lost work as "finished". When the
// same job index appears more than once (a failed job re-run by an
// earlier resume), the last record wins; At locates it. A journal
// written by another schema version is refused with ErrJournalMismatch
// before any record is decoded: its records do not parse under this
// schema.
func ParseJournal(data []byte) (*JournalReplay, error) {
	rep := &JournalReplay{Records: make(map[int]*JournalRecord), At: make(map[int]JournalPos)}
	pos := 0
	lineNo := 0
	sawHeader := false
	for pos < len(data) {
		nl := bytes.IndexByte(data[pos:], '\n')
		complete := nl >= 0
		var line []byte
		next := len(data)
		if complete {
			line = data[pos : pos+nl]
			next = pos + nl + 1
		} else {
			line = data[pos:]
		}
		lineNo++
		last := next >= len(data)
		if len(bytes.TrimSpace(line)) == 0 {
			pos = next
			continue
		}
		if !sawHeader {
			var h JournalHeader
			if err := json.Unmarshal(line, &h); err != nil || h.Kind != "header" {
				return nil, fmt.Errorf("runner: journal line 1 is not a header record")
			}
			if h.Version != JournalVersion {
				return nil, fmt.Errorf("%w: journal schema v%d, this build reads v%d — "+
					"finish the run with the build that wrote it, or remove the journal to start over",
					ErrJournalMismatch, h.Version, JournalVersion)
			}
			rep.Header = h
			sawHeader = true
			pos = next
			rep.ValidLen = int64(pos)
			continue
		}
		var r JournalRecord
		err := json.Unmarshal(line, &r)
		if err == nil && r.Kind != "job" && r.Kind != "lease" {
			err = fmt.Errorf("runner: journal record kind %q", r.Kind)
		}
		if err == nil && r.Kind == "job" && r.Index < 0 {
			err = fmt.Errorf("runner: journal job record with negative index")
		}
		if err != nil || !complete {
			if last {
				// Torn final record: the crash interrupted this append.
				rep.Torn = true
				return rep, nil
			}
			return nil, fmt.Errorf("runner: corrupt journal record at line %d: %v", lineNo, err)
		}
		if r.Kind == "lease" {
			var lr LeaseRecord
			if err := json.Unmarshal(line, &lr); err != nil {
				return nil, fmt.Errorf("runner: corrupt journal lease record at line %d: %v", lineNo, err)
			}
			rep.Leases = append(rep.Leases, lr)
		} else {
			rec := r
			rep.Records[rec.Index] = &rec
			rep.At[rec.Index] = JournalPos{Off: int64(pos), Len: int64(next - pos)}
		}
		pos = next
		rep.ValidLen = int64(pos)
	}
	if !sawHeader {
		return nil, errors.New("runner: journal is empty (no header record)")
	}
	return rep, nil
}

// Append journals one completed job, fsyncs on the configured cadence,
// and reports where the record landed (see ReadRecord). Safe for
// concurrent workers.
func (j *Journal) Append(rec *JournalRecord) (JournalPos, error) {
	return j.appendLine(rec)
}

// AppendLease journals one fabric lease event on the same fsync
// cadence as job records.
func (j *Journal) AppendLease(rec *LeaseRecord) error {
	rec.Kind = "lease"
	_, err := j.appendLine(rec)
	return err
}

// appendLine encodes one record of any kind outside the lock and
// appends it under the lock.
func (j *Journal) appendLine(rec any) (JournalPos, error) {
	var at JournalPos
	err := writeJSONLine(rec, func(line []byte) error {
		j.mu.Lock()
		defer j.mu.Unlock()
		n, err := j.f.Write(line)
		at = JournalPos{Off: j.size, Len: int64(n)}
		j.size += int64(n)
		if err != nil {
			return err
		}
		j.sinceSync++
		if j.fsyncEvery <= 1 || j.sinceSync >= j.fsyncEvery {
			j.sinceSync = 0
			return j.f.Sync()
		}
		return nil
	})
	return at, err
}

// ReadRecord reads back the job record at at, a position Append or
// the replay reported for this journal. It does not take the append
// lock: a record is never rewritten once its Append returned.
func (j *Journal) ReadRecord(at JournalPos) (*JournalRecord, error) {
	buf := make([]byte, at.Len)
	if _, err := j.f.ReadAt(buf, at.Off); err != nil {
		return nil, fmt.Errorf("runner: read journal record at %d: %w", at.Off, err)
	}
	rec := new(JournalRecord)
	if err := json.Unmarshal(buf, rec); err != nil || rec.Kind != "job" {
		return nil, fmt.Errorf("runner: journal record at %d does not decode: %v", at.Off, err)
	}
	return rec, nil
}

// linePool recycles writeJSONLine's buffers.
var linePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSONLine encodes v as one JSON line — json.Marshal's bytes plus
// a newline — into a pooled buffer and hands the line to write, which
// must not retain it. The record is encoded before write runs, so a
// write that takes a lock holds it for the copy alone, and the line is
// never copied on its way out. The journal appends its records through
// it.
func writeJSONLine(v any, write func(line []byte) error) error {
	buf := linePool.Get().(*bytes.Buffer)
	defer linePool.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return err
	}
	return write(buf.Bytes())
}

// Replayed returns the record a resumed journal held for a job index,
// and where it sits in the file, or nil.
func (j *Journal) Replayed(index int) (*JournalRecord, JournalPos) {
	if j.replay == nil {
		return nil, JournalPos{}
	}
	return j.replay.Records[index], j.replay.At[index]
}

// Header returns the journal's header.
func (j *Journal) Header() JournalHeader { return j.header }

// Path returns the journal file's path.
func (j *Journal) Path() string { return j.path }

// Close fsyncs and closes the journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// checkpointPath is the mid-job checkpoint file for job i, beside the
// journal and keyed by the job's index and scenario fingerprint fp: two
// jobs of one sweep can share a fingerprint (a cycle listed twice), and
// each writes and removes its own file.
func (j *Journal) checkpointPath(i int, fp uint64) string {
	return filepath.Join(filepath.Dir(j.path),
		fmt.Sprintf("ckpt-%d-%s.json", i, telemetry.FormatFingerprint(fp)))
}
