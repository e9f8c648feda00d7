package fl

import (
	"math"
	"slices"
	"strconv"
	"testing"
)

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
