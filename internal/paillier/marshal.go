package paillier

import (
	"encoding/binary"
	"fmt"

	"flbooster/internal/mpint"
)

// Wire encoding of keys: a magic byte, then length-prefixed big-endian
// component values. Used by the TCP demo and anywhere a key pair must cross
// a process boundary.

const (
	publicKeyMagic  = 0x50 // 'P'
	privateKeyMagic = 0x53 // 'S'
)

func appendNat(buf []byte, n mpint.Nat) []byte {
	b := n.Bytes()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

func readNat(buf []byte) (mpint.Nat, []byte, error) {
	if len(buf) < 4 {
		return nil, nil, fmt.Errorf("paillier: truncated length prefix")
	}
	l := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	if uint32(len(buf)) < l {
		return nil, nil, fmt.Errorf("paillier: truncated value (%d < %d)", len(buf), l)
	}
	return mpint.FromBytes(buf[:l]), buf[l:], nil
}

// MarshalBinary encodes the public key (n, g).
func (pk *PublicKey) MarshalBinary() ([]byte, error) {
	buf := []byte{publicKeyMagic}
	buf = appendNat(buf, pk.N)
	buf = appendNat(buf, pk.G)
	return buf, nil
}

// UnmarshalPublicKey decodes a public key and rebuilds its cached contexts.
func UnmarshalPublicKey(data []byte) (*PublicKey, error) {
	if len(data) < 1 || data[0] != publicKeyMagic {
		return nil, fmt.Errorf("paillier: not a public key encoding")
	}
	n, rest, err := readNat(data[1:])
	if err != nil {
		return nil, err
	}
	g, rest, err := readNat(rest)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("paillier: %d trailing bytes in public key", len(rest))
	}
	if n.BitLen() < 16 {
		return nil, fmt.Errorf("paillier: implausibly small modulus")
	}
	if n.IsEven() {
		return nil, fmt.Errorf("paillier: even modulus in public key")
	}
	n2 := mpint.Mul(n, n)
	if g.IsZero() || mpint.Cmp(g, n2) >= 0 {
		return nil, fmt.Errorf("paillier: generator outside [1, n²) in public key")
	}
	pk := &PublicKey{N: n, G: g, N2: n2}
	pk.montN2 = mpint.NewMont(pk.N2)
	pk.plusOne = mpint.Cmp(g, mpint.AddWord(n, 1)) == 0
	return pk, nil
}

// MarshalBinary encodes the private key (p, q, g); every derived component
// is recomputed on load so the encoding cannot go stale or inconsistent.
func (sk *PrivateKey) MarshalBinary() ([]byte, error) {
	buf := []byte{privateKeyMagic}
	buf = appendNat(buf, sk.P)
	buf = appendNat(buf, sk.Q)
	buf = appendNat(buf, sk.G)
	return buf, nil
}

// UnmarshalPrivateKey decodes a private key and re-derives λ, μ, and the
// CRT precomputation.
func UnmarshalPrivateKey(data []byte) (*PrivateKey, error) {
	if len(data) < 1 || data[0] != privateKeyMagic {
		return nil, fmt.Errorf("paillier: not a private key encoding")
	}
	p, rest, err := readNat(data[1:])
	if err != nil {
		return nil, err
	}
	q, rest, err := readNat(rest)
	if err != nil {
		return nil, err
	}
	g, rest, err := readNat(rest)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("paillier: %d trailing bytes in private key", len(rest))
	}
	n := mpint.Mul(p, q)
	if mpint.Cmp(g, mpint.AddWord(n, 1)) == 0 {
		g = nil // let newKey select the n+1 fast path
	}
	sk, err := newKey(p, q, g)
	if err != nil {
		return nil, fmt.Errorf("paillier: decoded key invalid: %w", err)
	}
	return sk, nil
}
