package flnet

import (
	"encoding/binary"
	"fmt"
)

// Session-resume handshake for client churn: a client that dropped off and
// came back announces where it believes the protocol is (epoch, round,
// attempt), and the coordinator either lets it resume the in-flight round —
// only when the token matches exactly, so a retransmitted upload dedups
// idempotently — or tells it to wait for the next round boundary. A stale
// client can therefore never inject traffic into a round it did not start.

// The handshake message kinds.
const (
	// KindResume: client → coordinator, payload = the client's SessionToken.
	KindResume = "resume"
	// KindResumeOK: coordinator → client, the token matched the in-flight
	// round; the client may continue uploading into it.
	KindResumeOK = "resume-ok"
	// KindResumeWait: coordinator → client, the token is stale (or from the
	// future); the payload token names the round the client may join.
	KindResumeWait = "resume-wait"
)

// SessionToken pins a client's protocol position: which epoch and round it
// is part of, and which attempt of that round (a crash-recovered round is
// re-run with a bumped attempt, invalidating pre-crash uploads).
type SessionToken struct {
	Epoch   uint64
	Round   uint64
	Attempt uint32
}

// tokenWireBytes is the fixed encoded size of a SessionToken.
const tokenWireBytes = 20

// Encode frames the token for the wire (little endian, fixed 20 bytes).
func (t SessionToken) Encode() []byte {
	buf := make([]byte, 0, tokenWireBytes)
	buf = binary.LittleEndian.AppendUint64(buf, t.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, t.Round)
	buf = binary.LittleEndian.AppendUint32(buf, t.Attempt)
	return buf
}

// DecodeSessionToken parses a frame built by Encode; anything else rejects
// with ErrMalformed.
func DecodeSessionToken(b []byte) (SessionToken, error) {
	if len(b) != tokenWireBytes {
		return SessionToken{}, fmt.Errorf("%w: session token of %d bytes, want %d", ErrMalformed, len(b), tokenWireBytes)
	}
	return SessionToken{
		Epoch:   binary.LittleEndian.Uint64(b),
		Round:   binary.LittleEndian.Uint64(b[8:]),
		Attempt: binary.LittleEndian.Uint32(b[16:]),
	}, nil
}

// Admission is the coordinator-side rejoin policy: the token of the round
// currently in flight.
type Admission struct {
	Current SessionToken
}

// AdmissionDecision is the coordinator's reply to one resume request.
type AdmissionDecision struct {
	// Kind is KindResumeOK or KindResumeWait.
	Kind string
	// Token is the position the client is admitted to: the in-flight round
	// on OK, the next round boundary on Wait.
	Token SessionToken
}

// Decide maps a client's claimed token to an admission decision. Only an
// exact (epoch, round, attempt) match resumes the in-flight round; any
// mismatch — an earlier round, a pre-crash attempt, a different epoch, or a
// token from the future — waits for the next round boundary. Deterministic
// and side-effect free.
func (a Admission) Decide(tok SessionToken) AdmissionDecision {
	if tok == a.Current {
		return AdmissionDecision{Kind: KindResumeOK, Token: a.Current}
	}
	return AdmissionDecision{
		Kind:  KindResumeWait,
		Token: SessionToken{Epoch: a.Current.Epoch, Round: a.Current.Round + 1, Attempt: 1},
	}
}
