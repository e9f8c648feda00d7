package fl

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestRoundPolicyEffectiveQuorum(t *testing.T) {
	cases := []struct {
		quorum, parties, want int
	}{
		{0, 4, 4},  // zero means all
		{3, 4, 3},  // explicit K-of-N
		{4, 4, 4},  // full strength
		{9, 4, 4},  // clamped (Validate rejects this, but resolve safely)
		{-1, 4, 4}, // negative treated as unset
	}
	for _, c := range cases {
		if got := (RoundPolicy{Quorum: c.quorum}).EffectiveQuorum(c.parties); got != c.want {
			t.Errorf("EffectiveQuorum(%d of %d) = %d, want %d", c.quorum, c.parties, got, c.want)
		}
	}
}

func TestRoundPolicyValidate(t *testing.T) {
	if err := (RoundPolicy{}).Validate(4); err != nil {
		t.Fatalf("zero policy must be valid: %v", err)
	}
	ok := RoundPolicy{Quorum: 3, PhaseTimeout: time.Second, MaxRetries: 2}
	if err := ok.Validate(4); err != nil {
		t.Fatalf("sound policy rejected: %v", err)
	}
	bad := []RoundPolicy{
		{Quorum: -1},
		{Quorum: 5},
		{PhaseTimeout: -time.Second},
		{MaxRetries: -1},
	}
	for i, p := range bad {
		if err := p.Validate(4); err == nil {
			t.Errorf("bad policy %d accepted: %+v", i, p)
		}
	}
}

func TestProfileValidatesRoundPolicy(t *testing.T) {
	p := NewProfile(SystemFATE, 1024, 4)
	p.Round.Quorum = 7
	if err := p.Validate(); err == nil {
		t.Fatal("profile with impossible quorum should fail validation")
	}
}

func TestRoundErrorFormatting(t *testing.T) {
	e := &RoundError{Round: 3, Phase: PhaseGather, Party: "client1", Err: errSentinel}
	msg := e.Error()
	for _, want := range []string{"round 3", "gather", "client1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	anon := &RoundError{Round: 1, Phase: PhaseDecrypt, Err: errSentinel}
	if strings.Contains(anon.Error(), "party") {
		t.Errorf("party-less error should not name a party: %q", anon.Error())
	}
}

var errSentinel = errors.New("boom")

func TestRoundReportDegraded(t *testing.T) {
	if (RoundReport{}).Degraded() {
		t.Fatal("empty report is not degraded")
	}
	r := RoundReport{Dropped: map[string]RoundPhase{"client0": PhaseGather}}
	if !r.Degraded() {
		t.Fatal("report with drops is degraded")
	}
}
