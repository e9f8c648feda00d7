package fl

import (
	"math"
	"slices"
	"strconv"
	"testing"
)

// TestChurnLeaveRejoinAdmission walks the roster life-cycle across round
// boundaries: a departed client stops contributing (with the scale
// compensating), a rejoin parks it as pending, and the next round boundary
// admits it — reported in RoundReport.Admitted.
func TestChurnLeaveRejoinAdmission(t *testing.T) {
	p := quorumProfile(SystemFLBooster)
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	grads := epochGrads(1, p.Parties, 4)[0]

	// Round 1: full federation.
	_, rep, err := fed.SecureAggregateReport(grads)
	if err != nil || len(rep.Included) != 4 || rep.Scale != 1 {
		t.Fatalf("round 1: rep %+v err %v", rep, err)
	}

	// client1 departs; round 2 runs with the remaining three at scale 4/3.
	if err := fed.Leave(ClientName(1)); err != nil {
		t.Fatal(err)
	}
	_, rep, err = fed.SecureAggregateReport(grads)
	if err != nil {
		t.Fatalf("round 2: %v", err)
	}
	if len(rep.Included) != 3 || rep.Scale != 4.0/3.0 {
		t.Fatalf("round 2: rep %+v", rep)
	}
	for _, name := range rep.Included {
		if name == ClientName(1) {
			t.Fatalf("departed client included: %+v", rep)
		}
	}

	// Rejoin parks the client: it is pending, not active, until the boundary.
	if err := fed.Rejoin(ClientName(1)); err != nil {
		t.Fatal(err)
	}
	if got := fed.Roster().Pending(); len(got) != 1 || got[0] != ClientName(1) {
		t.Fatalf("pending %v", got)
	}
	if got := fed.Roster().Active(); len(got) != 3 {
		t.Fatalf("active %v before the boundary", got)
	}

	// Round 3 admits it at the boundary and runs full again.
	_, rep, err = fed.SecureAggregateReport(grads)
	if err != nil {
		t.Fatalf("round 3: %v", err)
	}
	if len(rep.Admitted) != 1 || rep.Admitted[0] != ClientName(1) {
		t.Fatalf("round 3 admitted %v", rep.Admitted)
	}
	if len(rep.Included) != 4 || rep.Scale != 1 {
		t.Fatalf("round 3: rep %+v", rep)
	}
}

// TestChurnLeaveRejoinSameRound is the regression for the tightest churn
// window: a client that leaves and rejoins between the same two round
// boundaries must be admitted exactly once, contribute normally, and burn
// none of the round's drop budget. Repeated rejoin requests in the window
// must be rejected rather than queueing a double admission.
func TestChurnLeaveRejoinSameRound(t *testing.T) {
	p := quorumProfile(SystemFLBooster) // quorum 3 of 4
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	grads := epochGrads(1, p.Parties, 4)[0]

	// Leave and rejoin with no round in between: the client is pending, and
	// every further rejoin in the same window is a rejected double-admit.
	if err := fed.Leave(ClientName(2)); err != nil {
		t.Fatal(err)
	}
	if err := fed.Rejoin(ClientName(2)); err != nil {
		t.Fatal(err)
	}
	if err := fed.Rejoin(ClientName(2)); err == nil {
		t.Fatal("double rejoin within the same round window accepted")
	}
	if got := fed.Roster().Pending(); len(got) != 1 || got[0] != ClientName(2) {
		t.Fatalf("pending %v, want just %s", got, ClientName(2))
	}

	// The next boundary admits it exactly once; the round runs full, with no
	// drop recorded — the leave/rejoin cycle must not count against the
	// quorum budget.
	_, rep, err := fed.SecureAggregateReport(grads)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Admitted) != 1 || rep.Admitted[0] != ClientName(2) {
		t.Fatalf("admitted %v, want exactly one %s", rep.Admitted, ClientName(2))
	}
	if len(rep.Included) != p.Parties || rep.Scale != 1 {
		t.Fatalf("round after same-window churn degraded: %+v", rep)
	}
	if len(rep.Dropped) != 0 {
		t.Fatalf("same-window churn burned drop budget: %+v", rep.Dropped)
	}
	if got := len(fed.Roster().Active()); got != p.Parties {
		t.Fatalf("active %d after admission, want %d", got, p.Parties)
	}
	if got := fed.Roster().Pending(); len(got) != 0 {
		t.Fatalf("client still pending after admission: %v", got)
	}

	// A second run of the cycle ending below the boundary: the pending
	// client is not active, so it cannot leave again — the departed state is
	// single-entry, not a counter.
	if err := fed.Leave(ClientName(2)); err != nil {
		t.Fatal(err)
	}
	if err := fed.Rejoin(ClientName(2)); err != nil {
		t.Fatal(err)
	}
	if err := fed.Leave(ClientName(2)); err == nil {
		t.Fatal("pending client accepted a second departure")
	}
}

// TestChurnRosterErrors: the roster rejects invalid transitions.
func TestChurnRosterErrors(t *testing.T) {
	ctx, err := NewContext(testProfile(SystemFATE))
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	if err := fed.Leave("server"); err == nil {
		t.Fatal("server accepted as departing client")
	}
	if err := fed.Leave("client99"); err == nil {
		t.Fatal("unknown client departed")
	}
	if err := fed.Rejoin(ClientName(0)); err == nil {
		t.Fatal("active client rejoined")
	}
	if err := fed.Leave(ClientName(0)); err != nil {
		t.Fatal(err)
	}
	if err := fed.Leave(ClientName(0)); err == nil {
		t.Fatal("double departure accepted")
	}
	if err := fed.Rejoin(ClientName(0)); err != nil {
		t.Fatal(err)
	}
	if err := fed.Rejoin(ClientName(0)); err == nil {
		t.Fatal("double rejoin accepted")
	}
}

// TestChurnBelowQuorumFailsTyped: once departures push the active roster
// below an explicit quorum, rounds fail with a typed admit-phase error until
// someone rejoins.
func TestChurnBelowQuorumFailsTyped(t *testing.T) {
	p := quorumProfile(SystemFATE) // quorum 3 of 4
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	grads := epochGrads(1, p.Parties, 3)[0]
	for _, name := range []string{ClientName(0), ClientName(1)} {
		if err := fed.Leave(name); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = fed.SecureAggregateReport(grads)
	asRoundError(t, err, PhaseAdmit)

	// A rejoin at the boundary restores quorum and the next round runs.
	if err := fed.Rejoin(ClientName(0)); err != nil {
		t.Fatal(err)
	}
	_, rep, err := fed.SecureAggregateReport(grads)
	if err != nil || len(rep.Included) != 3 {
		t.Fatalf("post-rejoin round: rep %+v err %v", rep, err)
	}
}

// TestRosterPendingCanonicalOrder: pending clients come back in roster order,
// as Active lists them and admit admits them — client2 before client10, which
// a lexicographic sort would swap.
func TestRosterPendingCanonicalOrder(t *testing.T) {
	r := NewRoster(ClientNames(12))
	for _, i := range []int{10, 2} {
		if err := r.Leave(ClientName(i)); err != nil {
			t.Fatal(err)
		}
		if err := r.Rejoin(ClientName(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{ClientName(2), ClientName(10)}
	if got := r.Pending(); !slices.Equal(got, want) {
		t.Fatalf("Pending() = %v, want %v", got, want)
	}
	if got := r.admit(); !slices.Equal(got, want) {
		t.Fatalf("admit() = %v, want %v", got, want)
	}
}

// TestRosterActiveIsCopyOnWrite: Active hands out one cached slice until
// membership changes — no allocation on a repeat call — and a change builds a
// new one, so a slice a Schedule or journal record already holds never moves.
func TestRosterActiveIsCopyOnWrite(t *testing.T) {
	r := NewRoster(ClientNames(6))
	changes := []struct {
		name   string
		change func() error
	}{
		{"Leave", func() error { return r.Leave(ClientName(3)) }},
		{"Rejoin+admit", func() error {
			if err := r.Rejoin(ClientName(3)); err != nil {
				return err
			}
			r.admit()
			return nil
		}},
		{"Restore", func() error { r.Restore([]string{ClientName(1), ClientName(4)}); return nil }},
	}
	for _, c := range changes {
		before := r.Active()
		held := slices.Clone(before)
		if allocs := testing.AllocsPerRun(100, func() { r.Active() }); allocs != 0 {
			t.Errorf("before %s: %.1f allocs a repeated Active, want 0", c.name, allocs)
		}
		if err := c.change(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := r.Active()
		if !slices.Equal(before, held) {
			t.Errorf("%s rewrote a handed-out slice: %v, was %v", c.name, before, held)
		}
		var want []string
		for _, n := range ClientNames(6) {
			if r.active[n] {
				want = append(want, n)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("after %s: Active() = %v, want %v", c.name, got, want)
		}
	}
}

// FuzzClientIndex: ClientIndex inverts ClientName on every index n ≥ 0 (and
// refuses ClientName of a negative one), and every name it accepts is the one
// ClientName writes for that index — no sign, no leading zero, no non-ASCII
// digit, no overflow slips through.
func FuzzClientIndex(f *testing.F) {
	for i, s := range []string{"client3", "client10", "client+3", "client-0", "client03",
		"client", "client\u0663", "server", "client" + strconv.FormatUint(math.MaxInt64+1, 10)} {
		f.Add(s, i-1)
	}
	f.Fuzz(func(t *testing.T, s string, n int) {
		if i, err := ClientIndex(s); err == nil && (i < 0 || ClientName(i) != s) {
			t.Fatalf("ClientIndex(%q) = %d, but ClientName(%d) = %q", s, i, i, ClientName(i))
		}
		got, err := ClientIndex(ClientName(n))
		switch {
		case n >= 0 && (err != nil || got != n):
			t.Fatalf("ClientIndex(ClientName(%d)) = %d, %v", n, got, err)
		case n < 0 && err == nil:
			t.Fatalf("ClientIndex accepted %q", ClientName(n))
		}
	})
}
