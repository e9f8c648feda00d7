package flnet

import "testing"

func TestSessionTokenRoundTrip(t *testing.T) {
	tok := SessionToken{Epoch: 3, Round: 17, Attempt: 2}
	got, err := DecodeSessionToken(tok.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != tok {
		t.Fatalf("round trip %+v != %+v", got, tok)
	}
	if _, err := DecodeSessionToken([]byte{1, 2, 3}); err == nil {
		t.Fatal("short token accepted")
	}
}

func TestAdmissionDecisions(t *testing.T) {
	adm := Admission{Current: SessionToken{Epoch: 1, Round: 5, Attempt: 2}}
	// Exact match resumes the in-flight round.
	if d := adm.Decide(adm.Current); d.Kind != KindResumeOK || d.Token != adm.Current {
		t.Fatalf("exact match: %+v", d)
	}
	next := SessionToken{Epoch: 1, Round: 6, Attempt: 1}
	for name, tok := range map[string]SessionToken{
		"stale round":       {Epoch: 1, Round: 4, Attempt: 1},
		"pre-crash attempt": {Epoch: 1, Round: 5, Attempt: 1},
		"future round":      {Epoch: 1, Round: 9, Attempt: 1},
		"other epoch":       {Epoch: 0, Round: 5, Attempt: 2},
	} {
		if d := adm.Decide(tok); d.Kind != KindResumeWait || d.Token != next {
			t.Fatalf("%s: %+v", name, d)
		}
	}
}
