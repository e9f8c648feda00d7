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

// UnmarshalPublicKey decodes a public key and rebuilds its cached contexts. A
// generator other than n+1 rejects with ErrGenerator: it is the only one the
// code encrypts under, and without the factorisation no other g can be
// checked to have the order that makes it a generator at all (g = 1 turns
// every "encryption" into rⁿ, carrying no plaintext).
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
	if mpint.Cmp(g, mpint.AddWord(n, 1)) != 0 {
		return nil, ErrGenerator
	}
	pk := newPublicKey(n)
	return &pk, nil
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

// UnmarshalPrivateKey decodes a private key and re-derives λ and the CRT
// precomputation; like the public decoder it accepts g = n+1 only.
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
	if mpint.Cmp(g, mpint.AddWord(mpint.Mul(p, q), 1)) != 0 {
		return nil, ErrGenerator
	}
	sk, err := NewKeyFromPrimes(p, q)
	if err != nil {
		return nil, fmt.Errorf("paillier: decoded key invalid: %w", err)
	}
	return sk, nil
}
