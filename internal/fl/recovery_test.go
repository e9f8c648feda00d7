package fl

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"flbooster/internal/flnet"
	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
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

// The crash sweep. The coordinator dies (Journal.Fail → ErrCoordinatorCrash)
// right after each record kind the in-process round writes, in every round of
// a four-round epoch, on two profiles: flat, journaling to a FileStore, and a
// sampled cohort aggregated through a tree. Recover brings up a successor,
// which finishes the epoch. The churn rows Leave or Rejoin a client between
// the crash and the resume. Every case runs chaos-free, where it must equal
// an uninterrupted epoch to the bit, and under a fault mix — network drops,
// duplicates and reorders, device aborts, corruption, stalls and OOM under
// full verification — where every completed round must equal the plaintext
// oracle, every failure must be typed, and two runs must agree.

const sweepRounds = 4

// sweepProfile is one profile of the sweep and where it journals.
type sweepProfile struct {
	name string
	p    Profile
	file bool          // a FileStore; a MemStore otherwise
	hub  *flnet.TCPHub // each incarnation dials it as a loopback TCP mesh
}

func sweepProfiles() []sweepProfile {
	flat := testProfile(SystemFLBooster)
	tree := flat
	tree.Parties = 7
	tree.Cohort = CohortPolicy{Size: 4, Fanout: 2, MaxInflight: 2}
	for _, p := range []*Profile{&flat, &tree} {
		p.Round = RoundPolicy{Quorum: 3, PhaseTimeout: 200 * time.Millisecond, MaxRetries: 2}
	}
	return []sweepProfile{{"flat", flat, true, nil}, {"sampled-tree", tree, false, nil}}
}

// sweepCase is one crash point: the record kind and the round the
// coordinator dies after, and the churn the host requests before its
// successor resumes ("", "leave" or "rejoin").
type sweepCase struct {
	kind  EventKind
	round int
	churn string
}

func sweepCases() []sweepCase {
	var cases []sweepCase
	for _, kind := range []EventKind{EventRoundStart, EventAggregated, EventRoundDone, EventRoundFailed} {
		for r := 1; r <= sweepRounds; r++ {
			cases = append(cases, sweepCase{kind, r, ""})
			if kind != EventRoundFailed {
				cases = append(cases, sweepCase{kind, r, "leave"}, sweepCase{kind, r, "rejoin"})
			}
		}
	}
	return cases
}

func (c sweepCase) String() string {
	if c.churn == "" {
		return fmt.Sprintf("%s/round%d", c.kind, c.round)
	}
	return fmt.Sprintf("%s/round%d-%s", c.kind, c.round, c.churn)
}

// boundary is the host's churn before round r, the row's own excepted: a
// rejoin row's client departs before round 1, and a round-failed row departs
// clients until too few are active to meet the quorum before its round and
// brings them back after it.
func (c sweepCase) boundary(t *testing.T, fed *Federation, r int) {
	t.Helper()
	p := fed.Ctx.Profile
	for i := 0; i < p.Parties-p.Round.Quorum+1 && c.kind == EventRoundFailed; i++ {
		switch r {
		case c.round:
			mustChurn(t, fed.Leave(ClientName(i)))
		case c.round + 1:
			mustChurn(t, fed.Rejoin(ClientName(i)))
		}
	}
	if c.churn == "rejoin" && r == 1 {
		mustChurn(t, fed.Leave(ClientName(1)))
	}
}

// move is the row's own churn: a member of the crash round's cohort leaves,
// or the client that departed before round 1 rejoins.
func (c sweepCase) move(t *testing.T, fed *Federation) {
	t.Helper()
	p := fed.Ctx.Profile
	switch c.churn {
	case "leave":
		mustChurn(t, fed.Leave(p.Schedule(ClientNames(p.Parties), uint64(c.round)).Cohort[0]))
	case "rejoin":
		mustChurn(t, fed.Rejoin(ClientName(1)))
	}
}

func mustChurn(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// sweepRun is one epoch as its host saw it: each round's result (nil when
// it failed or the coordinator died before the host got it), report and
// error, the phase the successor resumed at, and the journal.
type sweepRun struct {
	grads   [][][]float64
	ctx     *Context
	sums    [][]float64
	reports []RoundReport
	errs    []error
	crashed bool
	resume  RoundPhase
	recs    []JournalRecord
}

// runSweep runs case c's epoch, with its failpoint armed when crash is set
// and under the fault mix when faults is. Each coordinator death boots a
// successor with Recover, the row's churn follows, and a round the journal
// left open is re-run. Without a crash the churn lands where an
// uninterrupted epoch applies it: before the round after the crash round.
func runSweep(t *testing.T, sp sweepProfile, c sweepCase, crash, faults bool) sweepRun {
	t.Helper()
	p := sp.p
	if faults {
		p.Faults.Inject = gpu.FaultConfig{Seed: 0xdead, AbortProb: 0.05, CorruptProb: 0.05, StallProb: 0.05, OOMProb: 0.05}
		p.Faults.Check = ghe.CheckedConfig{VerifyFraction: 1, VerifySeed: 1}
	}
	var store JournalStore = NewMemStore()
	if sp.file {
		fs, err := OpenFileStore(filepath.Join(t.TempDir(), "epoch.wal"))
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		store = fs
	}
	boots := uint64(0)
	boot := func() (*Federation, *RecoveryState) {
		ctx, err := NewContext(p)
		if err != nil {
			t.Fatal(err)
		}
		fed, state, err := Recover(ctx, store)
		if err != nil {
			t.Fatal(err)
		}
		if sp.hub != nil {
			fed.Transport.Close()
			fed.Transport = newTCPMesh(t, sp.hub, append(ClientNames(p.Parties), ServerName))
		}
		if faults { // each incarnation draws its own chaos stream
			fed.Transport = flnet.NewChaosTransport(fed.Transport, flnet.ChaosConfig{
				Seed: 3 ^ boots*0x9E3779B97F4A7C15, DropProb: 0.06, DupProb: 0.12, ReorderProb: 0.12})
		}
		boots++
		if crash {
			fed.Journal().Fail = func(rec JournalRecord) error {
				if rec.Kind == c.kind && rec.Round == uint64(c.round) && rec.Attempt == 1 {
					return ErrCoordinatorCrash
				}
				return nil
			}
		}
		return fed, state
	}
	fed, _ := boot()
	defer func() { fed.Close() }()
	run := sweepRun{grads: epochGrads(sweepRounds, p.Parties, 6), ctx: fed.Ctx}
	for r := 1; r <= sweepRounds; r++ {
		c.boundary(t, fed, r)
		if r == c.round+1 && !run.crashed {
			c.move(t, fed)
		}
		sum, rep, err := fed.SecureAggregateReport(run.grads[r-1])
		if errors.Is(err, ErrCoordinatorCrash) {
			run.crashed = true
			fed.Close()
			var state *RecoveryState
			fed, state = boot()
			c.move(t, fed)
			if state.Resume != nil {
				run.resume = state.Resume.Phase
				sum, rep, err = fed.SecureAggregateReport(run.grads[r-1])
			}
		}
		rep.Anatomy = nil // its HE sim reads the host clock once a device retires
		run.sums, run.reports, run.errs = append(run.sums, sum), append(run.reports, rep), append(run.errs, err)
	}
	run.recs = journalRecords(t, store)
	return run
}

func replayed(t *testing.T, recs []JournalRecord) RecoveryState {
	t.Helper()
	st, err := Replay(recs)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// checkBitExact holds a chaos-free crash run to the uninterrupted epoch with
// the same churn (ref): every result the host got, the successor's resume
// boundary, the re-run's attempt, every journaled roster and cohort, every
// digest and the final journal's tallies.
func checkBitExact(t *testing.T, c sweepCase, ref, got sweepRun) {
	t.Helper()
	wantResume := map[EventKind]RoundPhase{EventRoundStart: PhaseUpload, EventAggregated: PhaseBroadcast}[c.kind]
	if !got.crashed || got.resume != wantResume {
		t.Fatalf("crashed %t, resumed at %q; want a crash resumed at %q", got.crashed, got.resume, wantResume)
	}
	for r := range sweepRounds {
		rep, err, want := got.reports[r], got.errs[r], ref.reports[r]
		if errors.Is(err, ErrCoordinatorCrash) {
			continue // after a terminal record the host has nothing; the digests below speak for it
		}
		attempt := uint32(1)
		if r+1 == c.round && wantResume != "" {
			attempt = 2
		}
		if (err == nil) != (ref.errs[r] == nil) || !sameBits(got.sums[r], ref.sums[r]) ||
			!slices.Equal(rep.Included, want.Included) || rep.Round != uint64(r+1) ||
			rep.Attempt != attempt || rep.Resumed != (attempt == 2 && c.kind == EventAggregated) {
			t.Fatalf("round %d: %v %+v (err %v); the uninterrupted epoch %v %+v (err %v)",
				r+1, got.sums[r], rep, err, ref.sums[r], want, ref.errs[r])
		}
	}
	starts := make(map[uint64]JournalRecord)
	for _, rec := range ref.recs {
		if rec.Kind == EventRoundStart {
			starts[rec.Round] = rec
		}
	}
	for _, rec := range got.recs {
		if w := starts[rec.Round]; rec.Kind == EventRoundStart &&
			(!slices.Equal(rec.Members, w.Members) || !slices.Equal(rec.Cohort, w.Cohort)) {
			t.Fatalf("round %d attempt %d journaled roster %v cohort %v; uninterrupted %v %v",
				rec.Round, rec.Attempt, rec.Members, rec.Cohort, w.Members, w.Cohort)
		}
	}
	gotSt, wantSt := replayed(t, got.recs), replayed(t, ref.recs)
	if gotSt.Resume != nil || gotSt.Completed != wantSt.Completed || gotSt.Failed != wantSt.Failed ||
		gotSt.LastRound != wantSt.LastRound || !maps.Equal(gotSt.Digests, wantSt.Digests) {
		t.Fatalf("final journal %+v, uninterrupted %+v", gotSt, wantSt)
	}
}

// checkOracle holds a fault-mix run to its invariants: every completed round
// is the plaintext oracle over its included clients — HE is exact on
// quantized values, so any other bit is silent corruption — every failure is
// a *RoundError, and every round ends in a terminal journal record.
func checkOracle(t *testing.T, run sweepRun) {
	t.Helper()
	q, parties := run.ctx.Quant, run.ctx.Profile.Parties
	for r := range run.errs {
		var rerr *RoundError
		switch err, rep := run.errs[r], run.reports[r]; {
		case errors.Is(err, ErrCoordinatorCrash):
		case err != nil && !errors.As(err, &rerr):
			t.Fatalf("round %d: untyped failure %v", r+1, err)
		case err == nil:
			want := make([]float64, len(run.sums[r]))
			for j := range want {
				var sum uint64
				for _, name := range rep.Included {
					i, err := ClientIndex(name)
					if err != nil {
						t.Fatal(err)
					}
					sum += q.Quantize(run.grads[r][i][j])
				}
				v, err := q.DequantizeSum(sum, len(rep.Included))
				if err != nil {
					t.Fatalf("round %d: %v", r+1, err)
				}
				if k := len(rep.Included); k < parties {
					v *= float64(parties) / float64(k)
				}
				want[j] = v
			}
			if !sameBits(run.sums[r], want) {
				t.Fatalf("round %d over %v: %v, the oracle %v", r+1, rep.Included, run.sums[r], want)
			}
		}
	}
	if st := replayed(t, run.recs); st.Resume != nil || st.Completed+st.Failed != len(run.errs) {
		t.Fatalf("rounds left unresolved: %+v", st)
	}
}

// TestCrashSweep runs every crash point of the sweep on both profiles,
// chaos-free and under the fault mix; see the comment above sweepRounds.
func TestCrashSweep(t *testing.T) {
	var crashed, completed int
	for _, sp := range sweepProfiles() {
		for _, c := range sweepCases() {
			t.Run(sp.name+"/"+c.String(), func(t *testing.T) {
				t.Run("chaos-free", func(t *testing.T) {
					checkBitExact(t, c, runSweep(t, sp, c, false, false), runSweep(t, sp, c, true, false))
				})
				t.Run("faults", func(t *testing.T) {
					run := runSweep(t, sp, c, true, true)
					checkOracle(t, run)
					again := runSweep(t, sp, c, true, true)
					if !reflect.DeepEqual(run.reports, again.reports) || !reflect.DeepEqual(run.sums, again.sums) ||
						fmt.Sprint(run.errs) != fmt.Sprint(again.errs) {
						t.Fatalf("two runs diverged:\n%+v %v\n%+v %v", run.reports, run.errs, again.reports, again.errs)
					}
					if run.crashed {
						crashed++
					}
					for _, err := range run.errs {
						if err == nil {
							completed++
						}
					}
				})
			})
		}
	}
	if crashed == 0 || completed == 0 {
		t.Fatalf("under the fault mix %d cases crashed and %d rounds completed", crashed, completed)
	}
	t.Logf("under the fault mix %d cases crashed and %d rounds completed", crashed, completed)
}

// TestCoordinatorCrashRecoveryBitExact pins two of the sweep's flat rows: a
// coordinator killed after round 3's round-start or aggregated record, its
// journal on a FileStore, is resumed by a successor that finishes the epoch
// bit for bit with the uninterrupted one.
func TestCoordinatorCrashRecoveryBitExact(t *testing.T) {
	pinnedCrashes(t, sweepProfiles()[0], 3)
}

// TestCrashRecoveryReplaysSampledCohort pins the same two rows on the sampled
// tree profile at round 2: the successor re-runs the cohort the round-start
// journaled, and every journaled cohort equals the uninterrupted epoch's.
func TestCrashRecoveryReplaysSampledCohort(t *testing.T) {
	pinnedCrashes(t, sweepProfiles()[1], 2)
}

// pinnedCrashes runs sp's chaos-free sweep rows that crash after round's
// round-start and aggregated records, without churn.
func pinnedCrashes(t *testing.T, sp sweepProfile, round int) {
	for _, kind := range []EventKind{EventAggregated, EventRoundStart} {
		t.Run(string(kind), func(t *testing.T) {
			c := sweepCase{kind, round, ""}
			checkBitExact(t, c, runSweep(t, sp, c, false, false), runSweep(t, sp, c, true, false))
		})
	}
}

// TestSoakSmoke is one fault-mix row of the sweep that exercises all of it at
// once: on the sampled tree profile a client departs before round 1, the
// coordinator dies after round 2's aggregated record, the client rejoins
// before the successor resumes, and rounds complete to the plaintext oracle.
// Deterministic reruns it and wants the same reports, results and errors.
func TestSoakSmoke(t *testing.T) {
	sp, c := sweepProfiles()[1], sweepCase{EventAggregated, 2, "rejoin"}
	run := runSweep(t, sp, c, true, true)
	checkOracle(t, run)
	t.Run("Deterministic", func(t *testing.T) {
		again := runSweep(t, sp, c, true, true)
		if !reflect.DeepEqual(run.reports, again.reports) || !reflect.DeepEqual(run.sums, again.sums) ||
			fmt.Sprint(run.errs) != fmt.Sprint(again.errs) {
			t.Fatalf("two runs diverged:\n%+v %v\n%+v %v", run.reports, run.errs, again.reports, again.errs)
		}
	})
	completed := 0
	for _, err := range run.errs {
		if err == nil {
			completed++
		}
	}
	if !run.crashed || completed == 0 {
		t.Fatalf("smoke row crashed %t and completed %d of %d rounds", run.crashed, completed, sweepRounds)
	}
	t.Logf("smoke row: %d/%d rounds completed, resumed at %q", completed, sweepRounds, run.resume)
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
