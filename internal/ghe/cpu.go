package ghe

import (
	"errors"
	"fmt"

	"flbooster/internal/mpint"
)

// What a vector method rejects, typed, before anything is launched.
var (
	ErrLength      = errors.New("length mismatch")
	ErrUnderflow   = errors.New("subtraction underflow")
	ErrZeroDivisor = errors.New("zero divisor")
	ErrPlaintext   = errors.New("plaintext not below the modulus")
)

// VectorEngine is the vector interface of the GPU-HE layer as consumed by
// the Paillier backend: batched modular exponentiation, modular
// multiplication, and encryption. Engine (one device, one attempt),
// CheckedEngine (a device set + verification + retry + stealing + failover),
// and CPUEngine (pure host) all implement it, so callers degrade between
// substrates without code changes.
type VectorEngine interface {
	// ModExpVec computes bases[i]^exp mod m.N() for every i.
	ModExpVec(bases []mpint.Nat, exp mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error)
	// ModExpVarVec computes bases[i]^exps[i] mod m.N() for every i.
	ModExpVarVec(bases, exps []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error)
	// MultiExpVec computes Π bases[t.Index]^t.Weight mod m.N() over the terms
	// t of sums[i], for every i: weighted sums of one ciphertext vector.
	MultiExpVec(bases []mpint.Nat, sums [][]mpint.Term, m *mpint.Mont) ([]mpint.Nat, error)
	// ModMulVec computes a[i]*b[i] mod m.N() for every i.
	ModMulVec(a, b []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error)
	// EncryptVec computes the Paillier ciphertext (1 + ms[i]·n)·rᵢⁿ mod n² for
	// every i, rᵢ = RandCoprimeAt(seed, i, n), in one launch. A plaintext that
	// is not below n rejects with ErrPlaintext.
	EncryptVec(ms []mpint.Nat, key EncryptKey, seed uint64) ([]mpint.Nat, error)
}

// EncryptKey is a Paillier key under g = n+1 as EncryptVec needs it: what any
// party has of it, and the factorisation where the caller owns the key — the
// same ciphertexts at under a third of the work.
type EncryptKey struct {
	N     mpint.Nat
	N2    *mpint.Mont        // the context mod n²
	Sched *mpint.ExpSchedule // n compiled: the exponent every lane of the n² window shares
	CRT   *mpint.CRT         // the factorisation of n; nil unless the caller owns the key
}

// vecAPI is the VectorEngine methods, Table I's arithmetic ops and the prime
// search, written once for the three engines that embed it
// (which is what keeps them interchangeable): each method checks its operands,
// states the op as a descriptor (ops.go) and hands it to exec, the one thing
// the embedding engines differ in. An empty vector is no op at all: nothing is
// launched or charged.
type vecAPI struct {
	exec func(op vecOp) error
}

var _ VectorEngine = vecAPI{}

func (v vecAPI) run(op vecOp) ([]mpint.Nat, error) {
	if len(op.result()) == 0 {
		return nil, nil
	}
	if err := v.exec(op); err != nil {
		return nil, err
	}
	return op.result(), nil
}

// ModExpVec implements VectorEngine.
func (v vecAPI) ModExpVec(bases []mpint.Nat, exp mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	return v.run(&modExpOp{newModVec(len(bases), m), bases, exp, mpint.CompileExpAuto(exp)})
}

// ModExpVarVec implements VectorEngine. bases and exps must have equal
// length.
func (v vecAPI) ModExpVarVec(bases, exps []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	if len(bases) != len(exps) {
		return nil, fmt.Errorf("ghe: ModExpVarVec %w %d vs %d", ErrLength, len(bases), len(exps))
	}
	return v.run(&modExpVarOp{newModVec(len(bases), m), bases, exps})
}

// MultiExpVec implements VectorEngine. Zero weights are no terms, and a sum
// without a term is 1; a term that refers outside bases rejects with
// mpint.ErrTermIndex before anything is launched.
func (v vecAPI) MultiExpVec(bases []mpint.Nat, sums [][]mpint.Term, m *mpint.Mont) ([]mpint.Nat, error) {
	op, err := newMultiExpOp(newModVec(len(sums), m), bases, sums)
	if err != nil {
		return nil, fmt.Errorf("ghe: MultiExpVec: %w", err)
	}
	out, err := v.run(op)
	if err == nil {
		op.release()
	}
	return out, err
}

// ModMulVec implements VectorEngine. a and b must have equal length.
func (v vecAPI) ModMulVec(a, b []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("ghe: ModMulVec %w %d vs %d", ErrLength, len(a), len(b))
	}
	return v.run(&modMulOp{newModVec(len(a), m), a, b})
}

// EncryptVec implements VectorEngine.
func (v vecAPI) EncryptVec(ms []mpint.Nat, key EncryptKey, seed uint64) ([]mpint.Nat, error) {
	op, err := newEncryptOp(ms, key, seed)
	if err != nil {
		return nil, fmt.Errorf("ghe: EncryptVec: %w", err)
	}
	return v.run(op)
}

// elem runs one of Table I's five arithmetic ops.
func (v vecAPI) elem(kind *elemKind, a, b []mpint.Nat) ([]mpint.Nat, error) {
	op, err := newElemOp(kind, a, b)
	if err != nil {
		return nil, fmt.Errorf("ghe: %s: %w", kind.name, err)
	}
	return v.run(op)
}

// AddVec computes a[i]+b[i] for every i.
func (v vecAPI) AddVec(a, b []mpint.Nat) ([]mpint.Nat, error) { return v.elem(elemAdd, a, b) }

// SubVec computes a[i]−b[i] for every i; an element that would underflow
// rejects with ErrUnderflow.
func (v vecAPI) SubVec(a, b []mpint.Nat) ([]mpint.Nat, error) { return v.elem(elemSub, a, b) }

// MulVec computes a[i]·b[i] for every i.
func (v vecAPI) MulVec(a, b []mpint.Nat) ([]mpint.Nat, error) { return v.elem(elemMul, a, b) }

// DivVec computes ⌊a[i]/b[i]⌋ for every i; a zero divisor rejects with
// ErrZeroDivisor.
func (v vecAPI) DivVec(a, b []mpint.Nat) ([]mpint.Nat, error) { return v.elem(elemDiv, a, b) }

// ModVec computes a[i] mod n for every i; n = 0 rejects with ErrZeroDivisor.
func (v vecAPI) ModVec(a []mpint.Nat, n mpint.Nat) ([]mpint.Nat, error) {
	if n.IsZero() {
		return nil, fmt.Errorf("ghe: %s: %w", elemMod.name, ErrZeroDivisor)
	}
	return v.elem(elemMod, a, []mpint.Nat{n})
}

// primeWindow is how many candidates of the stream one launch tests. Primes
// are w·ln 2 / 2 odd w-bit candidates apart on average — 22 at a 128-bit key's
// prime width, 177 at a 1,024-bit key's, 355 at a 2,048-bit key's — so a launch
// finds its prime at once at test sizes and in three to six windows at
// deployed ones, and the lanes spent past the first prime stay a fraction of
// the search. The window sets what a search costs, never what it finds.
const primeWindow = 64

// GeneratePrime returns the first probable prime of the (seed, bits) candidate
// stream, exactly bits wide — the key-generation path of §IV-A3. The stream is
// tested a window a launch, in order, and the lowest position that holds a
// prime wins, so the result is a function of the seed: the same on any engine,
// over any number of devices and under any fault schedule.
func (v vecAPI) GeneratePrime(bits int, seed uint64) (mpint.Nat, error) {
	if bits < 4 {
		return nil, fmt.Errorf("ghe: GeneratePrime width %d too small", bits)
	}
	for pos := 0; ; pos += primeWindow {
		verdicts, err := v.run(&primeOp{outVec{make([]mpint.Nat, primeWindow)}, bits, seed, pos})
		if err != nil {
			return nil, err
		}
		for _, p := range verdicts {
			if !p.IsZero() {
				return p, nil
			}
		}
	}
}

// GeneratePrimePair returns two distinct primes of the given width, each the
// first of a stream of its own.
func (v vecAPI) GeneratePrimePair(bits int, seed uint64) (p, q mpint.Nat, err error) {
	p, err = v.GeneratePrime(bits, seed)
	if err != nil {
		return nil, nil, err
	}
	for i := uint64(1); ; i++ {
		q, err = v.GeneratePrime(bits, seed+i*0x94D049BB133111EB)
		if err != nil {
			return nil, nil, err
		}
		if mpint.Cmp(p, q) != 0 {
			return p, q, nil
		}
	}
}

// CPUEngine executes the vector interface serially on the host — the
// reference the device paths are checked against, and the loop a
// CheckedEngine serves an op with once no device is left. It runs the very
// lane bodies a device kernel runs (same mpint routines, same per-item stream
// derivation), so host results are bit-exact with healthy device results.
type CPUEngine struct{ vecAPI }

// NewCPUEngine returns the host engine.
func NewCPUEngine() *CPUEngine { return &CPUEngine{vecAPI{runOnHost}} }

// runOnHost executes an op on the host: its set-up stage without a launch,
// then every lane in order.
func runOnHost(op vecOp) error {
	if _, err := op.setup(nil); err != nil {
		return err
	}
	for i := range op.result() {
		op.lane(i)
	}
	return nil
}
