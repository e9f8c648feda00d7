package fl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
)

// The epoch-durability layer: a write-ahead journal of round state-machine
// transitions. The coordinator appends a record at every durable boundary —
// round start, aggregate computed, round done/failed — before acting on it,
// so a restarted coordinator replays the journal and resumes the epoch from
// the last safe boundary instead of from round zero. Records carry the
// nonce-stream cursor, so a re-run round encrypts the exact bytes the
// crashed attempt would have: recovery is bit-exact, not merely eventual.

// EventKind names one journaled state-machine transition.
type EventKind string

// The journal grammar, in the order a round emits them. A round is "open"
// from its round-start until a terminal record (done, failed, or drained);
// EventAggregated is the optional mid-round safe point.
const (
	// EventRoundStart: a round began; Cursor is the nonce-stream cursor
	// before any client encrypted, Members the active roster.
	EventRoundStart EventKind = "round-start"
	// EventAggregated: the homomorphic aggregate is durable; Payload holds
	// the encoded ciphertexts, Digest their checksum, Members the included
	// clients, Cursor the post-upload nonce cursor. A crash after this
	// record resumes at the broadcast boundary without re-gathering.
	EventAggregated EventKind = "aggregated"
	// EventRoundDone: the round completed; Digest is the aggregate digest.
	EventRoundDone EventKind = "round-done"
	// EventRoundFailed: the round failed with a typed error; Phase/Party/
	// Reason record where and why.
	EventRoundFailed EventKind = "round-failed"
	// EventDrained: the coordinator stopped cleanly mid-round (SIGTERM
	// drain) — the open round is abandoned at a phase boundary, not lost.
	EventDrained EventKind = "drained"
)

// JournalRecord is one durable state transition.
type JournalRecord struct {
	// Seq is the journal-assigned sequence number, 1-based and contiguous.
	Seq  uint64    `json:"seq"`
	Kind EventKind `json:"kind"`
	// Round locates the transition; Attempt counts re-runs of the same
	// round across coordinator restarts (1 = first execution).
	Round   uint64 `json:"round"`
	Attempt uint32 `json:"attempt,omitempty"`
	// Cursor is the context's nonce-stream cursor at record time.
	Cursor uint64 `json:"cursor,omitempty"`
	// Members is kind-dependent: the active roster at round-start, the
	// included (quorum) clients at aggregated/done.
	Members []string `json:"members,omitempty"`
	// Cohort is the round's sampled cohort (round-start only, and only when
	// cohort sampling actually narrowed the roster). Recovery re-samples
	// from the restored roster and cross-checks against this record — the
	// replayed round must schedule the identical cohort.
	Cohort []string `json:"cohort,omitempty"`
	// Phase, Party, Reason describe a failure (EventRoundFailed/Drained).
	Phase  RoundPhase `json:"phase,omitempty"`
	Party  string     `json:"party,omitempty"`
	Reason string     `json:"reason,omitempty"`
	// Digest is the FNV-1a checksum of the aggregate payload; Payload the
	// encoded aggregate ciphertexts (EventAggregated only).
	Digest  uint64 `json:"digest,omitempty"`
	Payload []byte `json:"payload,omitempty"`
}

// PayloadDigest is the journal's payload checksum (FNV-1a 64). It guards
// the recovery path against torn or bit-rotted aggregate records, and gives
// tests a stable fingerprint for "byte-identical aggregate" assertions.
func PayloadDigest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// JournalStore is the pluggable persistence behind a Journal.
type JournalStore interface {
	// Append durably writes one record. A record whose Append returned is
	// recoverable; one that did not may be torn and is discarded on Load.
	Append(rec JournalRecord) error
	// Load returns every durable record in append order.
	Load() ([]JournalRecord, error)
	// Close releases the store.
	Close() error
}

// MemStore is the in-memory JournalStore: durable for the life of the
// process, shared between a "crashed" federation and its recovered
// successor in tests.
type MemStore struct {
	mu   sync.Mutex
	recs []JournalRecord
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Append implements JournalStore.
func (s *MemStore) Append(rec JournalRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, rec)
	return nil
}

// Load implements JournalStore.
func (s *MemStore) Load() ([]JournalRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JournalRecord, len(s.recs))
	copy(out, s.recs)
	return out, nil
}

// Close implements JournalStore (a no-op; the records stay readable).
func (s *MemStore) Close() error { return nil }

// FileStore is the file-backed JournalStore: one JSON record per line,
// fsynced per append (write-ahead semantics — the record is on disk before
// the round acts on it). Load tolerates a torn final line, the artifact of
// dying mid-append, by discarding it; corruption anywhere earlier is
// ErrJournalCorrupt, not something to guess around.
type FileStore struct {
	mu   sync.Mutex
	path string
	f    *os.File
}

// dirSync fsyncs the directory so a just-created journal file's entry is
// durable — without it a crash can lose the file itself even though every
// record in it was fsynced. Swappable for tests asserting the
// open-create-sync sequence.
var dirSync = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// OpenFileStore opens (creating if absent) an append-only journal file.
// When the call creates the file, the parent directory is fsynced too:
// per-record fsyncs make the *contents* durable, but only a directory sync
// makes the file's existence durable across a crash.
func OpenFileStore(path string) (*FileStore, error) {
	_, statErr := os.Stat(path)
	created := os.IsNotExist(statErr)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fl: open journal: %w", err)
	}
	if created {
		if err := dirSync(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, fmt.Errorf("fl: sync journal directory: %w", err)
		}
	}
	return &FileStore{path: path, f: f}, nil
}

// Append implements JournalStore.
func (s *FileStore) Append(rec JournalRecord) error {
	blob, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("fl: journal encode: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("fl: append on closed journal store")
	}
	if _, err := s.f.Write(append(blob, '\n')); err != nil {
		return fmt.Errorf("fl: journal write: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("fl: journal sync: %w", err)
	}
	return nil
}

// Load implements JournalStore.
func (s *FileStore) Load() ([]JournalRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	blob, err := os.ReadFile(s.path)
	if err != nil {
		return nil, fmt.Errorf("fl: read journal: %w", err)
	}
	var recs []JournalRecord
	sc := bufio.NewScanner(bytes.NewReader(blob))
	sc.Buffer(nil, 1<<26)
	lines := 0
	var parseErr error
	for sc.Scan() {
		lines++
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec JournalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			parseErr = corrupt("line %d: %v", lines, err)
			continue
		}
		if parseErr != nil {
			// A parseable record after a corrupt one means real corruption,
			// not a torn tail.
			return nil, parseErr
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, corrupt("%v", err)
	}
	// A trailing unparsable line (or a file not ending in '\n') is the torn
	// final append of a crash mid-write: everything before it is intact.
	return recs, nil
}

// Close implements JournalStore.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("fl: journal store already closed")
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// ErrJournalCorrupt is what every journal that is not a journal to resume from
// is rejected with: a line that does not decode ahead of one that does, or a
// record sequence Replay's grammar refuses.
var ErrJournalCorrupt = errors.New("fl: corrupt journal")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrJournalCorrupt}, args...)...)
}

// ErrCoordinatorCrash is the sentinel a Journal.Fail hook returns to
// simulate the coordinator process dying at a durable boundary: the record
// it fired on IS durable, but nothing after it happens. The crash sweep
// uses it to kill a coordinator at every boundary without leaving the test
// process.
var ErrCoordinatorCrash = errors.New("fl: simulated coordinator crash")

// Journal sequences records into a store.
type Journal struct {
	mu    sync.Mutex
	store JournalStore
	seq   uint64

	// Fail, when non-nil, is consulted after every durable append; a
	// non-nil return is handed to the caller as if the coordinator died at
	// that boundary (conventionally ErrCoordinatorCrash). Chaos-test hook.
	Fail func(rec JournalRecord) error
}

// NewJournal positions a journal at the end of the store's existing
// records, so appends continue the sequence across restarts.
func NewJournal(store JournalStore) (*Journal, error) {
	if store == nil {
		return nil, fmt.Errorf("fl: NewJournal needs a store")
	}
	recs, err := store.Load()
	if err != nil {
		return nil, err
	}
	j := &Journal{store: store}
	if n := len(recs); n > 0 {
		j.seq = recs[n-1].Seq
	}
	return j, nil
}

// Append stamps the next sequence number onto rec and writes it durably.
func (j *Journal) Append(rec JournalRecord) error {
	j.mu.Lock()
	j.seq++
	rec.Seq = j.seq
	fail := j.Fail
	j.mu.Unlock()
	if err := j.store.Append(rec); err != nil {
		return err
	}
	if fail != nil {
		if err := fail(rec); err != nil {
			return err
		}
	}
	return nil
}

// Records returns every durable record in order.
func (j *Journal) Records() ([]JournalRecord, error) { return j.store.Load() }

// ResumePoint describes where a recovered coordinator picks an incomplete
// round back up.
type ResumePoint struct {
	Round   uint64
	Attempt uint32 // the attempt that crashed; the re-run bumps it
	// Phase is the safe boundary to resume from: PhaseUpload re-runs the
	// round from its start, PhaseBroadcast replays the journaled aggregate.
	Phase  RoundPhase
	Cursor uint64
	// Included and Payload/Digest carry the aggregate for a broadcast
	// resume; empty for an upload restart.
	Included []string
	Payload  []byte
	Digest   uint64
	// Roster is the live roster the crashed attempt's round-start journaled:
	// the re-run is scheduled over it, whatever churn the host requested
	// while the coordinator was down.
	Roster []string
	// Cohort is the crashed attempt's sampled cohort (nil when the round
	// scheduled the whole roster). The re-run cross-checks its own sample
	// against it: a mismatch means the profile diverged and the replay would
	// not be bit-exact.
	Cohort []string
}

// RecoveryState is the replayed summary of a journal.
type RecoveryState struct {
	// Records is how many journal records were replayed.
	Records int
	// LastRound is the highest round with a terminal record.
	LastRound uint64
	// Cursor is the nonce-stream cursor to restore when Resume is nil.
	Cursor uint64
	// Members is the active roster at the most recent round-start.
	Members []string
	// Resume is non-nil when a round was open (mid-flight) at the crash.
	Resume *ResumePoint
	// Completed/Failed/Drained count terminal records; Digests maps each
	// completed round to its aggregate digest.
	Completed int
	Failed    int
	Drained   int
	Digests   map[uint64]uint64
}

// Replay folds a journal into the state a restarted coordinator needs. It
// validates the record grammar (contiguous sequence numbers, transitions
// only on the open round, digest-checked aggregates) and rejects a violation
// with ErrJournalCorrupt — a journal that does not parse cleanly is not a
// journal to resume from.
func Replay(recs []JournalRecord) (RecoveryState, error) {
	st := RecoveryState{Records: len(recs), Digests: make(map[uint64]uint64)}
	var open *JournalRecord // the round-start of the currently open round
	var agg *JournalRecord  // its aggregated record, when reached
	for i := range recs {
		rec := recs[i]
		if rec.Seq != uint64(i)+1 {
			return st, corrupt("record %d has seq %d", i, rec.Seq)
		}
		switch rec.Kind {
		case EventRoundStart:
			if open != nil && open.Round != rec.Round {
				return st, corrupt("round %d started while round %d still open", rec.Round, open.Round)
			}
			open, agg = &recs[i], nil
			st.Members = rec.Members
		case EventAggregated:
			if open == nil || open.Round != rec.Round {
				return st, corrupt("aggregate record for round %d without an open round-start", rec.Round)
			}
			if PayloadDigest(rec.Payload) != rec.Digest {
				return st, corrupt("round %d aggregate record fails its digest", rec.Round)
			}
			agg = &recs[i]
		case EventRoundDone:
			if open == nil || open.Round != rec.Round {
				return st, corrupt("round-done for round %d without an open round-start", rec.Round)
			}
			st.Completed++
			st.Digests[rec.Round] = rec.Digest
			st.LastRound, st.Cursor = rec.Round, rec.Cursor
			open, agg = nil, nil
		case EventRoundFailed:
			if open == nil || open.Round != rec.Round {
				return st, corrupt("round-failed for round %d without an open round-start", rec.Round)
			}
			st.Failed++
			st.LastRound, st.Cursor = rec.Round, rec.Cursor
			open, agg = nil, nil
		case EventDrained:
			if open != nil && open.Round == rec.Round {
				open, agg = nil, nil
			}
			st.Drained++
			st.LastRound, st.Cursor = rec.Round, rec.Cursor
		default:
			return st, corrupt("unknown event %q", rec.Kind)
		}
	}
	if open != nil {
		rp := &ResumePoint{Round: open.Round, Attempt: open.Attempt, Phase: PhaseUpload,
			Cursor: open.Cursor, Roster: open.Members, Cohort: open.Cohort}
		if agg != nil {
			rp.Phase = PhaseBroadcast
			rp.Cursor = agg.Cursor
			rp.Included = agg.Members
			rp.Payload = agg.Payload
			rp.Digest = agg.Digest
		}
		st.Resume = rp
	}
	return st, nil
}
