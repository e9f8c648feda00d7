package fl

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func mustAppend(t *testing.T, j *Journal, recs ...JournalRecord) {
	t.Helper()
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFileStoreSyncsDirOnCreate pins the open-create-sync sequence: creating
// the journal file fsyncs its parent directory (making the file's existence
// durable, not just its records), reopening an existing journal does not,
// and a directory-sync failure fails the open instead of being swallowed.
func TestFileStoreSyncsDirOnCreate(t *testing.T) {
	dir := t.TempDir()
	var synced []string
	orig := dirSync
	dirSync = func(d string) error {
		synced = append(synced, d)
		return nil
	}
	defer func() { dirSync = orig }()

	path := filepath.Join(dir, "epoch.wal")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("creating the journal synced %v, want exactly [%s]", synced, dir)
	}
	mustAppend(t, mustJournal(t, s), JournalRecord{Kind: EventRoundStart, Round: 1, Attempt: 1})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopening the existing file must not re-sync the directory.
	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 {
		t.Fatalf("reopening an existing journal synced the directory again: %v", synced)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// A failed directory sync is a failed open: the store must not come up
	// with its durability story half-told.
	dirSync = func(string) error { return errors.New("sync refused") }
	if _, err := OpenFileStore(filepath.Join(dir, "other.wal")); err == nil {
		t.Fatal("open succeeded despite the directory sync failing")
	}
}

// mustJournal wraps NewJournal for tests that only need a working journal.
func mustJournal(t *testing.T, store JournalStore) *Journal {
	t.Helper()
	j, err := NewJournal(store)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestJournalStoresRoundTrip exercises both stores through the same
// append/load cycle: sequence numbers are stamped contiguously and records
// come back exactly as written.
func TestJournalStoresRoundTrip(t *testing.T) {
	stores := map[string]JournalStore{"mem": NewMemStore()}
	fs, err := OpenFileStore(filepath.Join(t.TempDir(), "epoch.wal"))
	if err != nil {
		t.Fatal(err)
	}
	stores["file"] = fs
	for name, store := range stores {
		t.Run(name, func(t *testing.T) {
			j, err := NewJournal(store)
			if err != nil {
				t.Fatal(err)
			}
			payload := []byte{1, 2, 3}
			mustAppend(t, j,
				JournalRecord{Kind: EventRoundStart, Round: 1, Attempt: 1, Cursor: 7, Members: []string{"client0", "client1"}},
				JournalRecord{Kind: EventAggregated, Round: 1, Attempt: 1, Members: []string{"client0"}, Digest: PayloadDigest(payload), Payload: payload},
				JournalRecord{Kind: EventRoundDone, Round: 1, Attempt: 1, Digest: PayloadDigest(payload), Cursor: 9},
			)
			recs, err := j.Records()
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 3 {
				t.Fatalf("loaded %d records", len(recs))
			}
			for i, rec := range recs {
				if rec.Seq != uint64(i)+1 {
					t.Fatalf("record %d has seq %d", i, rec.Seq)
				}
			}
			if string(recs[1].Payload) != string(payload) || recs[1].Members[0] != "client0" {
				t.Fatalf("aggregate record mangled: %+v", recs[1])
			}
			// A reopened journal continues the sequence.
			j2, err := NewJournal(store)
			if err != nil {
				t.Fatal(err)
			}
			mustAppend(t, j2, JournalRecord{Kind: EventRoundStart, Round: 2, Attempt: 1})
			recs, err = j2.Records()
			if err != nil {
				t.Fatal(err)
			}
			if recs[len(recs)-1].Seq != 4 {
				t.Fatalf("reopened journal continued at seq %d", recs[len(recs)-1].Seq)
			}
		})
	}
}

// TestFileStoreToleratesTornTail simulates dying mid-append: a truncated
// final line is discarded, but garbage in the middle of the file is an
// error — that is corruption, not a crash artifact.
func TestFileStoreToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "epoch.wal")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJournal(fs)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j,
		JournalRecord{Kind: EventRoundStart, Round: 1, Attempt: 1},
		JournalRecord{Kind: EventRoundDone, Round: 1, Attempt: 1},
	)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// Torn tail: a partial record with no trailing newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"kind":"round-sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	fs2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := fs2.Load()
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("loaded %d records past a torn tail", len(recs))
	}
	// NewJournal must position after the last *intact* record.
	j2, err := NewJournal(fs2)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j2, JournalRecord{Kind: EventRoundStart, Round: 2, Attempt: 1})
	fs2.Close()

	// Interior corruption: make the first line unparsable.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[0] = '#'
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	fs3, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs3.Close()
	if _, err := fs3.Load(); err == nil {
		t.Fatal("interior corruption loaded without error")
	}
}

// TestReplayGrammar walks Replay through complete, failed, and open rounds
// and asserts the replayed state — including both resume boundaries.
func TestReplayGrammar(t *testing.T) {
	payload := []byte("aggregate")
	digest := PayloadDigest(payload)
	seq := func(recs []JournalRecord) []JournalRecord {
		for i := range recs {
			recs[i].Seq = uint64(i) + 1
		}
		return recs
	}

	t.Run("terminal rounds", func(t *testing.T) {
		st, err := Replay(seq([]JournalRecord{
			{Kind: EventRoundStart, Round: 1, Attempt: 1, Cursor: 10, Members: []string{"client0", "client1"}},
			{Kind: EventAggregated, Round: 1, Attempt: 1, Cursor: 11, Digest: digest, Payload: payload},
			{Kind: EventRoundDone, Round: 1, Attempt: 1, Cursor: 11, Digest: digest},
			{Kind: EventRoundStart, Round: 2, Attempt: 1, Cursor: 11, Members: []string{"client0"}},
			{Kind: EventRoundFailed, Round: 2, Attempt: 1, Cursor: 13, Phase: PhaseGather, Reason: "below quorum"},
		}))
		if err != nil {
			t.Fatal(err)
		}
		if st.Resume != nil || st.Completed != 1 || st.Failed != 1 || st.LastRound != 2 || st.Cursor != 13 {
			t.Fatalf("state %+v", st)
		}
		if st.Digests[1] != digest || len(st.Members) != 1 {
			t.Fatalf("state %+v", st)
		}
	})

	t.Run("open round resumes at upload", func(t *testing.T) {
		st, err := Replay(seq([]JournalRecord{
			{Kind: EventRoundStart, Round: 1, Attempt: 1, Cursor: 5},
			{Kind: EventRoundDone, Round: 1, Attempt: 1, Cursor: 6},
			{Kind: EventRoundStart, Round: 2, Attempt: 3, Cursor: 6, Members: []string{"client0"}},
		}))
		if err != nil {
			t.Fatal(err)
		}
		rp := st.Resume
		if rp == nil || rp.Round != 2 || rp.Attempt != 3 || rp.Phase != PhaseUpload || rp.Cursor != 6 {
			t.Fatalf("resume %+v", rp)
		}
	})

	t.Run("open round resumes at broadcast", func(t *testing.T) {
		st, err := Replay(seq([]JournalRecord{
			{Kind: EventRoundStart, Round: 1, Attempt: 1, Cursor: 5},
			{Kind: EventAggregated, Round: 1, Attempt: 1, Cursor: 9, Members: []string{"client0", "client2"}, Digest: digest, Payload: payload},
		}))
		if err != nil {
			t.Fatal(err)
		}
		rp := st.Resume
		if rp == nil || rp.Phase != PhaseBroadcast || rp.Cursor != 9 || rp.Digest != digest || len(rp.Included) != 2 {
			t.Fatalf("resume %+v", rp)
		}
	})

	t.Run("drained closes the open round", func(t *testing.T) {
		st, err := Replay(seq([]JournalRecord{
			{Kind: EventRoundStart, Round: 1, Attempt: 1},
			{Kind: EventDrained, Round: 1, Cursor: 4},
		}))
		if err != nil {
			t.Fatal(err)
		}
		if st.Resume != nil || st.Drained != 1 || st.Cursor != 4 {
			t.Fatalf("state %+v", st)
		}
	})

	t.Run("violations fail loudly", func(t *testing.T) {
		bad := [][]JournalRecord{
			// Sequence gap.
			{{Seq: 2, Kind: EventRoundStart, Round: 1}},
			// Two different rounds open at once.
			seq([]JournalRecord{{Kind: EventRoundStart, Round: 1}, {Kind: EventRoundStart, Round: 2}}),
			// Aggregate without an open round.
			seq([]JournalRecord{{Kind: EventAggregated, Round: 1, Digest: digest, Payload: payload}}),
			// Aggregate whose payload fails its digest.
			seq([]JournalRecord{{Kind: EventRoundStart, Round: 1}, {Kind: EventAggregated, Round: 1, Digest: digest ^ 1, Payload: payload}}),
			// Terminal record for a round that never started.
			seq([]JournalRecord{{Kind: EventRoundDone, Round: 1}}),
			// Unknown event kind.
			seq([]JournalRecord{{Kind: "round-paused", Round: 1}}),
		}
		for i, recs := range bad {
			if _, err := Replay(recs); err == nil {
				t.Fatalf("case %d replayed without error", i)
			}
		}
	})
}

// TestJournalFailHook verifies the crash-simulation contract: the record the
// hook fires on is durable, and the caller sees the hook's error.
func TestJournalFailHook(t *testing.T) {
	store := NewMemStore()
	j, err := NewJournal(store)
	if err != nil {
		t.Fatal(err)
	}
	j.Fail = func(rec JournalRecord) error {
		if rec.Kind == EventAggregated {
			return ErrCoordinatorCrash
		}
		return nil
	}
	mustAppend(t, j, JournalRecord{Kind: EventRoundStart, Round: 1, Attempt: 1})
	err = j.Append(JournalRecord{Kind: EventAggregated, Round: 1, Attempt: 1, Digest: PayloadDigest(nil)})
	if !errors.Is(err, ErrCoordinatorCrash) {
		t.Fatalf("hook error not surfaced: %v", err)
	}
	recs, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("crashed append not durable: %d records", len(recs))
	}
}
