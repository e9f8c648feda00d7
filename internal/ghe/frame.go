package ghe

import (
	"errors"
	"fmt"
	"sync"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// What a vector method rejects, typed, before anything is launched.
var (
	ErrLength      = errors.New("length mismatch")
	ErrUnderflow   = errors.New("subtraction underflow")
	ErrZeroDivisor = errors.New("zero divisor")
	ErrPlaintext   = errors.New("plaintext not below the modulus")
	ErrWitness     = errors.New("Miller–Rabin candidate or base out of range")
)

// EncryptKey is a Paillier key under g = n+1 as EncryptVecs needs it: what any
// party has of it, and the factorisation where the caller owns the key — the
// same ciphertexts at under a third of the work.
type EncryptKey struct {
	N     mpint.Nat
	N2    *mpint.Mont        // the context mod n²
	Sched *mpint.ExpSchedule // n compiled: the exponent every lane of the n² window shares
	CRT   *mpint.CRT         // the factorisation of n; nil unless the caller owns the key
}

// DecryptKey is a Paillier private key under g = n+1 as DecryptVec needs it:
// the factorisation with the two reduced-exponent constants the lane works
// through, and the textbook trapdoor verification recomputes a sample with.
type DecryptKey struct {
	CRT        *mpint.CRT
	HP, HQ     mpint.Nat // L_s(g^(s−1) mod s²)⁻¹ mod s for s = p, q, in Montgomery form
	Lambda, Mu mpint.Nat // λ = lcm(p−1, q−1) and μ = L(g^λ mod n²)⁻¹ mod n
}

// Frame is the working set of one backend call, all of it dead at Release:
// Fig. 4's convert step — the []Nat views of the call's ciphertext operands
// (Vec) and the results of the op it runs, staged until the backend has copied
// them out — and the op's descriptor, one of each kind, so stating an op
// allocates nothing. One of the seven methods below runs the op; what it returns
// is carved from the frame, and an op over no items is no op at all.
//
// Frames are pooled: no launch returns ahead of its lanes, so nothing reads
// a frame once its call has released it.
type Frame struct {
	e     *CheckedEngine
	slots []mpint.Nat // staging, carved up to cap
	used  int
	into  []mpint.Nat // the next op's result vector, when Into handed one in

	expVar modExpVarOp
	multi  multiExpOp
	mul    modMulOp
	encs   []encryptOp // EncryptVecs' batch, kept with the frame
	dec    decryptOp
	pack   shiftPackOp
	mr     millerRabinOp
}

// Vec carves the frame's next n staging values, all nil.
func (f *Frame) Vec(n int) []mpint.Nat {
	f.used += n
	return f.slots[f.used-n : f.used : f.used]
}

// Into has the frame's next op write its len(dst) results into dst instead
// of a vector carved from staging. Lane i writes result i into the limbs
// dst[i] holds where its arithmetic has a form that writes in place (the
// modular product, the decryption, the weighted sum, the packing) and they
// are long enough, and replaces dst[i] otherwise: a caller that hands in a
// dead batch's values gets its results without allocating limbs.
// EncryptVecs takes its destination as an argument and writes the same way.
func (f *Frame) Into(dst []mpint.Nat) { f.into = dst }

// result is the next op's result vector of n values: what Into handed in,
// else staging.
func (f *Frame) result(n int) []mpint.Nat {
	out := f.into
	if f.into = nil; len(out) != n {
		return f.Vec(n)
	}
	return out
}

// Release ends the call: nothing of the frame may be used after it.
func (f *Frame) Release() {
	clear(f.slots[:f.used]) // a pooled frame must not pin a batch's limbs
	clear(f.encs)
	*f = Frame{e: f.e, slots: f.slots, encs: f.encs[:0]}
	f.e.frames.Put(f)
}

// ModExpVarVec computes bases[i]^exps[i] mod m.N() for every i. bases and exps
// must have equal length.
func (f *Frame) ModExpVarVec(bases, exps []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	if len(bases) != len(exps) {
		return nil, fmt.Errorf("ghe: ModExpVarVec %w %d vs %d", ErrLength, len(bases), len(exps))
	}
	f.expVar = modExpVarOp{modVec{outVec{f.result(len(bases))}, m}, bases, exps}
	return f.e.run(&f.expVar)
}

// MultiExpVec computes Π bases[t.Index]^t.Weight mod m.N() over the terms t of
// sums[i], for every i: weighted sums of one ciphertext vector. Zero weights
// are no terms, and a sum without a term is 1; a term that refers outside bases
// rejects with mpint.ErrTermIndex before anything is launched.
func (f *Frame) MultiExpVec(bases []mpint.Nat, sums [][]mpint.Term, m *mpint.Mont) ([]mpint.Nat, error) {
	tbl, err := m.NewMultiExpTable(bases, sums)
	if err != nil {
		return nil, fmt.Errorf("ghe: MultiExpVec: %w", err)
	}
	f.multi = multiExpOp{modVec{outVec{f.result(len(sums))}, m}, bases, sums, tbl}
	out, err := f.e.run(&f.multi)
	tbl.Release()
	return out, err
}

// ModMulVec computes a[i]*b[i] mod m.N() for every i. a and b must have equal
// length.
func (f *Frame) ModMulVec(a, b []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("ghe: ModMulVec %w %d vs %d", ErrLength, len(a), len(b))
	}
	f.mul = modMulOp{modVec{outVec{f.result(len(a))}, m}, a, b}
	return f.e.run(&f.mul)
}

// EncryptVecs computes the Paillier ciphertexts (1 + m·n)·rᵢⁿ mod n² of
// several batches under one key, batch j's plaintexts m on the nonce stream of
// seeds[j] (rᵢ = RandCoprimeAt(seeds[j], i, n)), as one job: each batch is its
// own op — one launch, charged, sharded, retried and failed over as any op
// is — and the executor runs their lanes together. Batch j's ciphertexts are
// written into dst[o:o+len(ms[j])], o the lengths of the batches before it, in
// the limbs dst holds there. It returns how many batches were encrypted: all,
// or those before the first that failed, whose error it returns; nothing after
// that one is launched. A plaintext not below n fails its batch with
// ErrPlaintext before anything of it is uploaded.
func (f *Frame) EncryptVecs(dst []mpint.Nat, ms [][]mpint.Nat, key EncryptKey, seeds []uint64) (int, error) {
	total := 0
	for _, b := range ms {
		total += len(b)
	}
	if len(seeds) != len(ms) || len(dst) != total {
		return 0, fmt.Errorf("ghe: EncryptVecs %w: %d batches of %d plaintexts, %d seeds and %d results", ErrLength, len(ms), total, len(seeds), len(dst))
	}
	var invalid error
	for j, b := range ms {
		op, err := newEncryptOp(dst[:len(b)], b, key, seeds[j])
		if err != nil {
			invalid = fmt.Errorf("ghe: EncryptVecs: batch %d: %w", j, err)
			break
		}
		f.encs = append(f.encs, op)
		dst = dst[len(b):]
	}
	done, err := f.e.scheduleBatch(f.encs)
	if err == nil {
		err = invalid
	}
	return done, err
}

// DecryptVec computes the Paillier plaintext of every cs[i] < n², through the
// factorisation, in one launch.
func (f *Frame) DecryptVec(cs []mpint.Nat, key DecryptKey) ([]mpint.Nat, error) {
	f.dec = decryptOp{outVec{f.result(len(cs))}, cs, key}
	return f.e.run(&f.dec)
}

// ShiftPackVec computes Π cs[i·slots+j]^(2^(slotBits·j)) mod m.N() over the
// j < slots that cs has a value for: ciphertext i of the ⌈len(cs)/slots⌉ it
// returns packs the plaintexts of its group into slotBits-wide slots, the
// first lowest.
func (f *Frame) ShiftPackVec(cs []mpint.Nat, slots, slotBits int, m *mpint.Mont) ([]mpint.Nat, error) {
	if slots < 1 || slotBits < 1 {
		return nil, fmt.Errorf("ghe: ShiftPackVec needs slots and slot bits of at least 1, got %d and %d", slots, slotBits)
	}
	f.pack = shiftPackOp{modVec{outVec{f.result((len(cs) + slots - 1) / slots)}, m}, cs, slots, slotBits, shiftSchedule(slotBits)}
	return f.e.run(&f.pack)
}

// shiftSchedules holds the compiled 2^bits of every slot width a ShiftPackVec
// launch has used: read-only once compiled, and the protocols use a handful.
var shiftSchedules sync.Map // int → *mpint.ExpSchedule

// shiftSchedule is the compiled shift of a bits-wide slot, compiled once.
func shiftSchedule(bits int) *mpint.ExpSchedule {
	if s, ok := shiftSchedules.Load(bits); ok {
		return s.(*mpint.ExpSchedule)
	}
	s, _ := shiftSchedules.LoadOrStore(bits, mpint.CompileExpAuto(mpint.Lsh(mpint.One(), uint(bits))))
	return s.(*mpint.ExpSchedule)
}

// MillerRabinVec runs one Miller–Rabin round a lane: result i is 1 when ns[i]
// — ns[0] for every i when ns holds one — survives the round to base as[i], 0
// when the base witnesses it composite. A candidate must be odd and at least 5
// and a base in [2, n−2]; anything else rejects with ErrWitness, and a length
// mismatch with ErrLength, before anything is uploaded.
func (f *Frame) MillerRabinVec(ns, as []mpint.Nat) (_ []mpint.Nat, err error) {
	if f.mr, err = newMillerRabinOp(f.result(len(as)), ns, as); err != nil {
		return nil, fmt.Errorf("ghe: MillerRabinVec: %w", err)
	}
	return f.e.run(&f.mr)
}

// Frame returns the working set of one call, with staging for n values: the
// operand views the caller carves and the results of its op.
func (c *CheckedEngine) Frame(n int) *Frame {
	f, _ := c.frames.Get().(*Frame)
	if f == nil {
		f = &Frame{e: c}
	}
	if cap(f.slots) < n {
		f.slots = make([]mpint.Nat, n)
	}
	return f
}

// roundWindow is the key-generation window for an engine whose devices run
// `workers` host goroutines between them: a lane group (gpu.LaneGroup) a
// worker, so that each worker's chunk of round 0 is one full group on the
// multi-buffer kernel — eight candidates, each lane its own modulus. A window
// of w rounds computes its lanes past the first survivor that passes round 0
// for nothing, about w/2 exponentiations a prime, and pays a launch a window.
// On one chain a lane (paillier's BenchmarkGenerateKey on the two-core
// reference box: 1,024- and 2,048-bit keys, seeds 1 and 2) one, two, four and
// eight a worker ran 1.49×, 1.54×, 1.54× and 1.51× the host loop's speed:
// flat, so the window is the group's to size. The walk is the serial walk at
// any window (mpint.PrimeSearch).
func roundWindow(workers int) int { return gpu.LaneGroup * workers }

// PrimeSearch is the key-generation walk with its Miller–Rabin rounds tested
// as miller_rabin_vec launches, a window a launch.
func (c *CheckedEngine) PrimeSearch() mpint.PrimeSearch {
	return mpint.PrimeSearch{Window: c.window, Run: c.millerRabin}
}

// millerRabin is a mpint.RoundRunner over one launch.
func (c *CheckedEngine) millerRabin(ns, as []mpint.Nat, passed []bool) error {
	f := c.Frame(len(as))
	defer f.Release()
	out, err := f.MillerRabinVec(ns, as)
	if err != nil {
		return err
	}
	for i, x := range out {
		passed[i] = x.IsOne()
	}
	return nil
}

// run executes op and returns its result vector. An empty op is no op at
// all: nothing is launched or charged.
func (c *CheckedEngine) run(op vecOp) ([]mpint.Nat, error) {
	if len(op.result()) == 0 {
		return nil, nil
	}
	if err := c.schedule(op); err != nil {
		return nil, err
	}
	return op.result(), nil
}

// ModExpVec computes bases[i]^exp mod m.N() for every i.
func (c *CheckedEngine) ModExpVec(bases []mpint.Nat, exp mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	return c.run(&modExpOp{newModVec(len(bases), m), bases, exp, mpint.CompileExpAuto(exp)})
}

// ModMulVec is Frame.ModMulVec into a vector of its own, the caller's to keep.
func (c *CheckedEngine) ModMulVec(a, b []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("ghe: ModMulVec %w %d vs %d", ErrLength, len(a), len(b))
	}
	return c.run(&modMulOp{newModVec(len(a), m), a, b})
}

// elem runs one of Table I's five arithmetic ops.
func (c *CheckedEngine) elem(kind *elemKind, a, b []mpint.Nat) ([]mpint.Nat, error) {
	op, err := newElemOp(kind, a, b)
	if err != nil {
		return nil, fmt.Errorf("ghe: %s: %w", kind.name, err)
	}
	return c.run(op)
}

// AddVec computes a[i]+b[i] for every i.
func (c *CheckedEngine) AddVec(a, b []mpint.Nat) ([]mpint.Nat, error) { return c.elem(elemAdd, a, b) }

// SubVec computes a[i]−b[i] for every i; an element that would underflow
// rejects with ErrUnderflow.
func (c *CheckedEngine) SubVec(a, b []mpint.Nat) ([]mpint.Nat, error) { return c.elem(elemSub, a, b) }

// MulVec computes a[i]·b[i] for every i.
func (c *CheckedEngine) MulVec(a, b []mpint.Nat) ([]mpint.Nat, error) { return c.elem(elemMul, a, b) }

// DivVec computes ⌊a[i]/b[i]⌋ for every i; a zero divisor rejects with
// ErrZeroDivisor.
func (c *CheckedEngine) DivVec(a, b []mpint.Nat) ([]mpint.Nat, error) { return c.elem(elemDiv, a, b) }

// ModVec computes a[i] mod n for every i; n = 0 rejects with ErrZeroDivisor.
func (c *CheckedEngine) ModVec(a []mpint.Nat, n mpint.Nat) ([]mpint.Nat, error) {
	if n.IsZero() {
		return nil, fmt.Errorf("ghe: %s: %w", elemMod.name, ErrZeroDivisor)
	}
	return c.elem(elemMod, a, []mpint.Nat{n})
}

// runOnHost executes an op on the host: its set-up stage without a launch,
// then every lane in order, one item at a time — the serial reference, and
// the loop the executor serves a shard with once no device is left, so every
// op of the CPU profiles, whose fleet has no member.
func runOnHost(op vecOp) error {
	if _, err := op.setup(nil); err != nil {
		return err
	}
	for i := range op.result() {
		op.Lanes(i, i+1)
	}
	return nil
}
