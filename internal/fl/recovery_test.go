package fl

import (
	"errors"
	"math"
	"path/filepath"
	"testing"
)

// epochGrads builds deterministic per-round, per-client gradient vectors.
func epochGrads(rounds, parties, dim int) [][][]float64 {
	out := make([][][]float64, rounds)
	for r := range out {
		out[r] = make([][]float64, parties)
		for c := range out[r] {
			g := make([]float64, dim)
			for i := range g {
				g[i] = 0.01*float64(r+1) - 0.003*float64(c) + 0.001*float64(i)
			}
			out[r][c] = g
		}
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCoordinatorCrashRecoveryBitExact is the kill-and-restart acceptance
// test: a coordinator killed mid-epoch — at the round-start boundary (before
// any encryption) and at the aggregated boundary (after gather) — recovers
// from a file-backed journal and finishes the epoch with every round's
// result bit-identical to an uninterrupted same-seed run.
func TestCoordinatorCrashRecoveryBitExact(t *testing.T) {
	const rounds, crashRound = 5, 3
	profile := testProfile(SystemFLBooster)
	grads := epochGrads(rounds, profile.Parties, 6)

	// The uninterrupted reference epoch.
	refCtx, err := NewContext(profile)
	if err != nil {
		t.Fatal(err)
	}
	refFed := NewFederation(refCtx)
	defer refFed.Close()
	ref := make([][]float64, rounds)
	for r := 0; r < rounds; r++ {
		if ref[r], err = refFed.SecureAggregate(grads[r]); err != nil {
			t.Fatalf("reference round %d: %v", r+1, err)
		}
	}

	for _, boundary := range []EventKind{EventRoundStart, EventAggregated} {
		t.Run(string(boundary), func(t *testing.T) {
			store, err := OpenFileStore(filepath.Join(t.TempDir(), "epoch.wal"))
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			j, err := NewJournal(store)
			if err != nil {
				t.Fatal(err)
			}
			// Kill the coordinator the moment the chosen boundary of the
			// crash round becomes durable.
			j.Fail = func(rec JournalRecord) error {
				if rec.Kind == boundary && rec.Round == crashRound {
					return ErrCoordinatorCrash
				}
				return nil
			}

			ctx, err := NewContext(profile)
			if err != nil {
				t.Fatal(err)
			}
			fed := NewFederation(ctx)
			fed.AttachJournal(j)
			results := make([][]float64, rounds)
			crashed := false
			for r := 0; r < rounds && !crashed; r++ {
				results[r], err = fed.SecureAggregate(grads[r])
				if err != nil {
					if !errors.Is(err, ErrCoordinatorCrash) {
						t.Fatalf("round %d: %v", r+1, err)
					}
					if r+1 != crashRound {
						t.Fatalf("crashed in round %d, armed for %d", r+1, crashRound)
					}
					crashed = true
				}
			}
			if !crashed {
				t.Fatal("crash hook never fired")
			}
			fed.Close()

			// Restart: a fresh context from the same profile (deterministic
			// keys) recovered from the journal file.
			ctx2, err := NewContext(profile)
			if err != nil {
				t.Fatal(err)
			}
			fed2, state, err := Recover(ctx2, store)
			if err != nil {
				t.Fatal(err)
			}
			defer fed2.Close()
			if state.Resume == nil || state.Resume.Round != crashRound {
				t.Fatalf("recovery found no resume point for round %d: %+v", crashRound, state)
			}
			wantPhase := PhaseUpload
			if boundary == EventAggregated {
				wantPhase = PhaseBroadcast
			}
			if state.Resume.Phase != wantPhase {
				t.Fatalf("resume phase %s, want %s", state.Resume.Phase, wantPhase)
			}
			for r := crashRound - 1; r < rounds; r++ {
				sum, rep, err := fed2.SecureAggregateReport(grads[r])
				if err != nil {
					t.Fatalf("recovered round %d: %v", r+1, err)
				}
				if rep.Round != uint64(r)+1 {
					t.Fatalf("recovered round ID %d, want %d", rep.Round, r+1)
				}
				if r+1 == crashRound {
					if rep.Attempt != 2 {
						t.Fatalf("re-run of round %d has attempt %d", r+1, rep.Attempt)
					}
					if wantResumed := boundary == EventAggregated; rep.Resumed != wantResumed {
						t.Fatalf("round %d resumed=%v at boundary %s", r+1, rep.Resumed, boundary)
					}
				}
				results[r] = sum
			}

			for r := 0; r < rounds; r++ {
				if !sameBits(results[r], ref[r]) {
					t.Fatalf("boundary %s: round %d diverged from the uninterrupted run\n got %v\nwant %v",
						boundary, r+1, results[r], ref[r])
				}
			}

			// The journal must replay to a clean, fully-terminal epoch whose
			// completed-round digests match what an uninterrupted journal of
			// the same epoch would record.
			recs, err := fed2.Journal().Records()
			if err != nil {
				t.Fatal(err)
			}
			final, err := Replay(recs)
			if err != nil {
				t.Fatal(err)
			}
			if final.Resume != nil || final.Completed != rounds || final.LastRound != rounds {
				t.Fatalf("final journal state %+v", final)
			}
		})
	}
}

// TestRecoveryDigestsMatchUninterruptedJournal compares the journaled
// aggregate digests of a crashed-and-recovered epoch against an
// uninterrupted journaled epoch: every completed round must record the
// identical ciphertext digest, the byte-level form of bit-exact recovery.
func TestRecoveryDigestsMatchUninterruptedJournal(t *testing.T) {
	const rounds, crashRound = 4, 2
	profile := testProfile(SystemFLBooster)
	grads := epochGrads(rounds, profile.Parties, 6)

	runEpoch := func(store JournalStore, crash bool) map[uint64]uint64 {
		t.Helper()
		j, err := NewJournal(store)
		if err != nil {
			t.Fatal(err)
		}
		if crash {
			j.Fail = func(rec JournalRecord) error {
				if rec.Kind == EventAggregated && rec.Round == crashRound && rec.Attempt == 1 {
					return ErrCoordinatorCrash
				}
				return nil
			}
		}
		ctx, err := NewContext(profile)
		if err != nil {
			t.Fatal(err)
		}
		fed := NewFederation(ctx)
		fed.AttachJournal(j)
		for r := 0; r < rounds; r++ {
			if _, err := fed.SecureAggregate(grads[r]); err != nil {
				if !crash || !errors.Is(err, ErrCoordinatorCrash) {
					t.Fatalf("round %d: %v", r+1, err)
				}
				fed.Close()
				ctx2, err := NewContext(profile)
				if err != nil {
					t.Fatal(err)
				}
				fed, _, err = Recover(ctx2, store)
				if err != nil {
					t.Fatal(err)
				}
				r-- // re-run the crashed round on the recovered coordinator
			}
		}
		defer fed.Close()
		recs, err := fed.Journal().Records()
		if err != nil {
			t.Fatal(err)
		}
		state, err := Replay(recs)
		if err != nil {
			t.Fatal(err)
		}
		if state.Completed != rounds {
			t.Fatalf("epoch completed %d/%d rounds", state.Completed, rounds)
		}
		return state.Digests
	}

	clean := runEpoch(NewMemStore(), false)
	crashed := runEpoch(NewMemStore(), true)
	for r := uint64(1); r <= rounds; r++ {
		if clean[r] != crashed[r] {
			t.Fatalf("round %d digest %#x after recovery, want %#x", r, crashed[r], clean[r])
		}
	}
}

// TestRecoverOnEmptyJournal: recovering from a fresh store is a plain cold
// start — round 1 next, nothing resumed.
func TestRecoverOnEmptyJournal(t *testing.T) {
	ctx, err := NewContext(testProfile(SystemFATE))
	if err != nil {
		t.Fatal(err)
	}
	fed, state, err := Recover(ctx, NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	if state.Resume != nil || state.Records != 0 || fed.Round() != 0 {
		t.Fatalf("cold start state %+v round %d", state, fed.Round())
	}
	grads := epochGrads(1, ctx.Profile.Parties, 3)[0]
	if _, rep, err := fed.SecureAggregateReport(grads); err != nil || rep.Round != 1 || rep.Attempt != 1 {
		t.Fatalf("first round after cold start: rep %+v err %v", rep, err)
	}
}

// asRoundError asserts err is a *RoundError in the given phase.
func asRoundError(t *testing.T, err error, phase RoundPhase) *RoundError {
	t.Helper()
	var rerr *RoundError
	if !errors.As(err, &rerr) {
		t.Fatalf("untyped error %T: %v", err, err)
	}
	if rerr.Phase != phase {
		t.Fatalf("error phase %s, want %s: %v", rerr.Phase, phase, rerr)
	}
	return rerr
}
