package paillier

import (
	"fmt"
	"time"

	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// StreamBackend extends Backend with chunked encryption: the caller opens a
// session, feeds successive chunks of one logical plaintext vector in
// order, and gets ciphertexts bit-exact with a single whole-batch
// EncryptVec call under the same seed. On a device backend every chunk is
// also scheduled onto the device's H2D/compute/D2H streams, so closing the
// session records the measured overlapped cost next to the sequential sum.
type StreamBackend interface {
	Backend
	// BeginEncrypt opens a chunked encryption session under pk and seed.
	BeginEncrypt(pk *PublicKey, seed uint64) (EncryptSession, error)
}

// EncryptSession is one in-flight chunked encryption. Chunks must be fed in
// stream order (the CPU nonce stream is sequential; the device stream is
// indexed but the pipeline models in-order chunks), from a single
// goroutine. Close is idempotent and must be called when done.
type EncryptSession interface {
	// Next encrypts the next chunk and returns its ciphertexts together
	// with the chunk's sequential simulated HE cost (zero on substrates
	// without a modelled clock).
	Next(ms []mpint.Nat) ([]Ciphertext, time.Duration, error)
	// Close ends the session, charging any measured stream overlap to the
	// device counters.
	Close()
}

// Both backends stream.
var (
	_ StreamBackend = (*GPUBackend)(nil)
	_ StreamBackend = CPUBackend{}
)

// BeginEncrypt implements StreamBackend. The serial CPU path draws every
// nonce from one RNG session, so chunked encryption simply keeps that RNG
// across chunks — bit-exactness with EncryptVec follows from feeding chunks
// in order.
func (CPUBackend) BeginEncrypt(pk *PublicKey, seed uint64) (EncryptSession, error) {
	if pk == nil {
		return nil, fmt.Errorf("paillier: BeginEncrypt needs a public key")
	}
	return &cpuEncryptSession{pk: pk, rng: mpint.NewRNG(seed)}, nil
}

type cpuEncryptSession struct {
	pk   *PublicKey
	rng  *mpint.RNG
	base int
}

// Next implements EncryptSession.
func (s *cpuEncryptSession) Next(ms []mpint.Nat) ([]Ciphertext, time.Duration, error) {
	out := make([]Ciphertext, len(ms))
	for i, m := range ms {
		c, err := s.pk.Encrypt(m, s.rng)
		if err != nil {
			return nil, 0, fmt.Errorf("paillier: cpu EncryptSession[%d]: %w", s.base+i, err)
		}
		out[i] = c
	}
	s.base += len(ms)
	return out, 0, nil
}

// Close implements EncryptSession.
func (*cpuEncryptSession) Close() {}

// BeginEncrypt implements StreamBackend. The engine must be a
// ghe.StreamEngine (all shipped engines are): chunked nonce generation is
// addressed by global stream position, so chunk boundaries never change the
// r values, and the CheckedEngine's retry/failover of a single chunk
// reproduces the same positions.
func (g *GPUBackend) BeginEncrypt(pk *PublicKey, seed uint64) (EncryptSession, error) {
	if pk == nil {
		return nil, fmt.Errorf("paillier: BeginEncrypt needs a public key")
	}
	se, ok := g.Engine.(ghe.StreamEngine)
	if !ok {
		return nil, fmt.Errorf("paillier: engine %T does not support streamed encryption", g.Engine)
	}
	s := &gpuEncryptSession{g: g, pk: pk, seed: seed, eng: se}
	if dev := se.StreamDevice(); dev != nil {
		s.pipe = dev.NewPipeline(2)
	} else if clk, ok := g.Engine.(ghe.SimClock); ok {
		// No single device to pipeline on (a sharded multi-device engine),
		// but the substrate still keeps a modelled clock: per-chunk cost is
		// read as SimNow deltas instead of pipeline chunks.
		s.clk = clk
	}
	return s, nil
}

type gpuEncryptSession struct {
	g    *GPUBackend
	pk   *PublicKey
	seed uint64
	eng  ghe.StreamEngine
	pipe *gpu.Pipeline // nil when the engine runs without a device
	clk  ghe.SimClock  // set when pipe is nil but the engine has a clock
	base int
	done bool
}

// Next implements EncryptSession: the same chunk shape as EncryptVec
// (the two nonce kernels, then the hom-mul combine) with nonce positions
// offset by the session's global base, bracketed as one pipeline chunk.
func (s *gpuEncryptSession) Next(ms []mpint.Nat) ([]Ciphertext, time.Duration, error) {
	for i, m := range ms {
		if mpint.Cmp(m, s.pk.N) >= 0 {
			return nil, 0, fmt.Errorf("paillier: gpu EncryptSession[%d]: plaintext exceeds modulus", s.base+i)
		}
	}
	if s.pipe != nil {
		s.pipe.Begin()
	}
	var clkMark time.Duration
	if s.clk != nil {
		clkMark = s.clk.SimNow()
	}
	rn, err := s.g.nonceTerms(s.pk, s.base, len(ms), s.seed)
	if err != nil {
		return nil, 0, fmt.Errorf("paillier: gpu EncryptSession: %w", err)
	}
	gm, err := s.g.gPowMVec(s.pk, ms)
	if err != nil {
		return nil, 0, fmt.Errorf("paillier: gpu EncryptSession g^m: %w", err)
	}
	prod, err := s.eng.ModMulVec(gm, rn, s.pk.MontN2())
	if err != nil {
		return nil, 0, fmt.Errorf("paillier: gpu EncryptSession combine: %w", err)
	}
	var seq time.Duration
	if s.pipe != nil {
		seq, _ = s.pipe.End()
	} else if s.clk != nil {
		seq = s.clk.SimNow() - clkMark
	}
	out := make([]Ciphertext, len(ms))
	for i := range prod {
		out[i] = Ciphertext{C: prod[i]}
	}
	s.base += len(ms)
	return out, seq, nil
}

// Close implements EncryptSession, folding the pipeline's critical path
// into the device's stream counters.
func (s *gpuEncryptSession) Close() {
	if s.done {
		return
	}
	s.done = true
	if s.pipe != nil {
		s.pipe.Close()
	}
}
