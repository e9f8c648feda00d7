package fl

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"flbooster/internal/batch"
	"flbooster/internal/core"
	"flbooster/internal/flnet"
	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
	"flbooster/internal/obs"
	"flbooster/internal/paillier"
	"flbooster/internal/quant"
)

// Context is one acceleration configuration instantiated: the Paillier key,
// the HE stack — executor and backend — the encoding-quantization
// and batch-compression layers, the link model, and the cost tracker every
// operation reports into. It implements the pipelined processing of Fig. 4.
type Context struct {
	Profile Profile
	Key     *paillier.PrivateKey
	Backend paillier.Backend
	Quant   *quant.Quantizer
	// Packer is the batch-compression layer: n slots a plaintext, one when
	// batch compression is off (Profile.UseBatch).
	Packer *batch.Packer
	// Checked is the executor that runs every vector HE op over the profile's
	// device fleet — on a GPU profile one member unless Profile.Devices asks
	// for more, on a CPU profile none, so the host loop serves every op.
	// Device is its member 0, nil on a CPU profile, kept because the frozen
	// benchmark/ reads it (probes.go, measure.go).
	Checked *ghe.CheckedEngine
	Device  *gpu.Device
	Link    flnet.Link
	Costs   *Costs
	// Obs is the observability bundle (span recorder + metrics registry)
	// attached via AttachObs; nil means tracing/metrics are off and every
	// instrumentation call is a no-op.
	Obs       *obs.Obs
	obsPrefix string
	seed      uint64
	// inner, mask and bases are BroadcastSums' scratch, reused from batch to
	// batch: its inner sums, the trivial plaintext crossMask writes, and the
	// broadcast beside the trivial encryptions.
	inner [][]mpint.Term
	mask  mpint.Nat
	bases []paillier.Ciphertext
	wave  uploads
}

// NewContext builds a context from a profile, generating a fresh key pair
// from the profile's seed.
func NewContext(p Profile) (*Context, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ctx := &Context{
		Profile: p,
		Link:    flnet.FATEEffectiveLink(),
		Costs:   &Costs{},
		seed:    p.Seed,
	}
	q, err := quant.New(p.GradBound, p.RBits, p.Parties)
	if err != nil {
		return nil, err
	}
	ctx.Quant = q
	newPacker := batch.NewSingle
	if p.UseBatch() {
		newPacker = batch.New
	}
	if ctx.Packer, err = newPacker(q, p.KeyBits); err != nil {
		return nil, err
	}
	// Every profile runs through the one stack core builds: launch failures
	// retry with backoff, sampled results are verified, a faulted member's
	// shards go to its peers, and a fleet with no member left — a CPU
	// profile's from the start — runs the bit-exact host loop.
	devices := 0
	if p.UseGPU() {
		devices = max(p.Devices, 1)
	}
	st, err := core.NewStack(p.Device, p.FineRM(), devices, p.Faults.Inject, p.Faults.Check)
	if err != nil {
		return nil, err
	}
	ctx.Checked, ctx.Backend = st.Checked, st.Backend
	if devices > 0 {
		ctx.Device = st.Checked.Devices()[0]
	}
	// One seeded walk whichever runs its rounds: every profile of a seed has
	// the same key.
	if ctx.Key, err = st.GenerateKey(mpint.NewRNG(p.Seed), p.KeyBits); err != nil {
		return nil, fmt.Errorf("fl: key generation: %w", err)
	}
	return ctx, nil
}

// sanitizeLabel makes a label safe as a metric-name and trace-party segment.
func sanitizeLabel(label string) string {
	return strings.ReplaceAll(strings.TrimSpace(label), " ", "_")
}

// AttachObs wires the observability bundle into the context and its layers:
// PublishMetrics writes into o's registry under "<layer>.<label>", and the
// executor's devices record sim-time spans under the party "<label>.gpu".
// A nil bundle detaches. Labels distinguish contexts sharing one bundle; an
// empty label falls back to the profile's system.
func (c *Context) AttachObs(o *obs.Obs, label string) {
	if label == "" {
		label = string(c.Profile.System)
	}
	label = sanitizeLabel(label)
	c.Obs = o
	c.obsPrefix = label
	for _, d := range c.Checked.Devices() {
		d.SetRecorder(o.Recorder(), label+".gpu")
	}
}

// PublishMetrics pulls the current statistics into the attached registry as
// absolute counters and gauges: the cost snapshot under "fl.<label>", the
// executor's devices and ledger under "gpu.<label>" and "ghe.<label>".
// No-op without an attached bundle.
func (c *Context) PublishMetrics() {
	if c.Obs == nil {
		return
	}
	reg := c.Obs.Metrics()
	c.Costs.Snapshot().publish(reg, "fl."+c.obsPrefix)
	c.Checked.PublishMetrics(reg, c.obsPrefix)
}

// SimCost returns the context's sim cost clock: modelled HE, wire and encode
// time accrued so far. Round phases are stamped on this clock, so spans from
// the cost-model path line up with the device spans.
func (c *Context) SimCost() time.Duration {
	s := c.Costs.Snapshot()
	return s.HESim + s.CommSim + s.EncodeSim
}

// metricAdd bumps one protocol counter under the context's "fl.<label>."
// prefix; a no-op without an attached bundle. Protocol counters have no
// other owner, so they are pushed as they happen and survive Costs.Reset.
func (c *Context) metricAdd(name string, delta int64) {
	if c.Obs == nil || delta == 0 {
		return
	}
	c.Obs.Metrics().Add("fl."+c.obsPrefix+"."+name, delta)
}

// metricMax raises one high-water counter under the context's "fl.<label>."
// prefix; a no-op without an attached bundle, pushed like metricAdd's.
func (c *Context) metricMax(name string, v int64) {
	if c.Obs == nil {
		return
	}
	c.Obs.Metrics().SetMax("fl."+c.obsPrefix+"."+name, v)
}

// SeedCursor returns the nonce-stream cursor: the state nextSeed advances
// once per HE batch. Journaling it at round boundaries is what makes crash
// recovery bit-exact — a recovered coordinator restores the cursor and every
// re-encrypted batch draws the same nonce stream the lost attempt would have.
func (c *Context) SeedCursor() uint64 { return c.seed }

// RestoreSeedCursor rewinds (or fast-forwards) the nonce-stream cursor to a
// journaled position.
func (c *Context) RestoreSeedCursor(cursor uint64) { c.seed = cursor }

// nextSeed derives a fresh nonce-stream seed per HE batch.
func (c *Context) nextSeed() uint64 {
	c.seed = c.seed*6364136223846793005 + 1442695040888963407
	return c.seed
}

// chargeHE runs one HE batch and enters it in the HE component: its host
// time, and its modelled time — the executor's clock advance, which on a
// fleet of no member is the host loop's wall time — with the HE operations and
// logical values batch reports. It returns the modelled time; a failed batch
// charges nothing.
func (c *Context) chargeHE(batch func() (ops, instances int64, err error)) (time.Duration, error) {
	base, start := c.Checked.SimTime(), time.Now()
	ops, instances, err := batch()
	if err != nil {
		return 0, err
	}
	wall, sim := time.Since(start), c.Checked.SimTime()-base
	c.Costs.AddHE(wall, sim, ops, instances)
	return sim, nil
}

// EncodePlaintexts converts a gradient vector into HE plaintexts: quantized
// (Encoding-Quantization layer) and packed Packer.Slots() a plaintext into the
// limbs of a dead plaintext batch where the arena has one.
func (c *Context) EncodePlaintexts(grads []float64) ([]mpint.Nat, error) {
	return c.Packer.EncodeGradientsInto(arena.getPlain(c.Packer.NumPlaintexts(len(grads))), grads)
}

// PlaintextCount returns how many HE plaintexts carry n gradient values.
func (c *Context) PlaintextCount(n int) int { return c.Packer.NumPlaintexts(n) }

// EncryptGradients runs the full client-side encryption phase (steps ①–④ of
// Fig. 4): encode, quantize, pack, encrypt. Costs are charged to the HE
// component; the plainval/ciphertext counts feed the compression ratio.
//
// The encrypting party is anyone who knows the public key — a vertical
// model's host encrypting under the arbiter's key. A party that owns the key
// calls EncryptGradientsAs with its holder handle instead.
func (c *Context) EncryptGradients(grads []float64) ([]paillier.Ciphertext, error) {
	return c.EncryptGradientsAs(&c.Key.PublicKey, grads)
}

// EncryptGradientsAs is EncryptGradients under a caller-chosen handle of the
// context's key: &Key.PublicKey for a party that was only given the public
// key, Key.Holder() for the key's owner — every client of the Fig. 2
// protocol — whose rⁿ terms then go through the factorisation. The
// ciphertexts are the same bytes either way; the handle decides what the
// encryption costs, on both clocks. It is an upload wave of one.
func (c *Context) EncryptGradientsAs(pk *paillier.PublicKey, grads []float64) ([]paillier.Ciphertext, error) {
	if err := c.encodeUpload(pk, grads); err != nil {
		return nil, err
	}
	cts, err := c.encryptUploads()
	if err != nil {
		return nil, err
	}
	out := cts[0]
	clear(cts)
	return out, nil
}

// uploads is the upload wave being encrypted — each upload's handle, encoded
// plaintexts, gradient count and nonce seed, and then its ciphertexts — kept
// from wave to wave: encodeUpload adds to it, encryptUploads empties it.
type uploads struct {
	keys  []*paillier.PublicKey
	pts   [][]mpint.Nat
	vals  []int
	seeds []uint64
	cts   [][]paillier.Ciphertext
}

// encodeUpload is an upload's first step: the handle check, then the encode,
// charged to the encode component. The plaintexts join the wave.
func (c *Context) encodeUpload(pk *paillier.PublicKey, grads []float64) error {
	if err := c.checkHandle(pk); err != nil {
		return err
	}
	encStart := time.Now()
	pts, err := c.EncodePlaintexts(grads)
	if err != nil {
		return err
	}
	c.Costs.AddEncode(time.Since(encStart), encodeSim(len(grads)), int64(len(grads)))
	w := &c.wave
	w.keys, w.pts, w.vals = append(w.keys, pk), append(w.pts, pts), append(w.vals, len(grads))
	return nil
}

// encryptUploads encrypts the wave's uploads, each on its own next nonce
// seed, drawn in order. Uploads under one handle are one charged HE batch
// (paillier.EncryptVecs): a launch an upload and, on a GPU profile, one host
// job for their lanes. It returns their ciphertexts, upload j's at j, in a
// slice kept for the next wave, and gives the plaintexts back to the arena.
// On an error it returns the uploads before the one that failed and leaves
// the seed cursor after that one's seed, where encrypting them one at a time
// would have.
func (c *Context) encryptUploads() ([][]paillier.Ciphertext, error) {
	w := &c.wave
	defer func() {
		clear(w.keys)
		clear(w.pts)
		w.keys, w.pts, w.vals, w.seeds = w.keys[:0], w.pts[:0], w.vals[:0], w.seeds[:0]
	}()
	for range w.pts {
		w.seeds = append(w.seeds, c.nextSeed())
	}
	w.cts = slices.Grow(w.cts[:0], len(w.pts))[:len(w.pts)]
	for lo := 0; lo < len(w.pts); {
		hi := lo + 1
		for hi < len(w.pts) && w.keys[hi] == w.keys[lo] {
			hi++
		}
		done, err := c.encryptRun(lo, hi)
		if err != nil {
			c.RestoreSeedCursor(w.seeds[lo+done])
			return w.cts[:lo+done], err
		}
		lo = hi
	}
	for _, p := range w.pts {
		arena.putPlain(p)
	}
	return w.cts, nil
}

// encryptRun is the wave's uploads [lo, hi), under one handle, as one charged
// HE batch. Uploads encrypted before one that failed are charged, with the
// device clock's advance up to the failure; a batch that failed whole charges
// nothing. It returns how many were encrypted.
func (c *Context) encryptRun(lo, hi int) (done int, err error) {
	w := &c.wave
	_, cerr := c.chargeHE(func() (ops, instances int64, _ error) {
		if done, err = paillier.EncryptVecs(c.Backend, w.cts[lo:hi], w.keys[lo], w.pts[lo:hi], w.seeds[lo:hi]); done == 0 {
			return 0, 0, err
		}
		for j, b := range w.cts[lo : lo+done] {
			ops += int64(len(b))
			instances += int64(w.vals[lo+j])
			c.Costs.AddCompression(int64(w.vals[lo+j]), int64(len(b)))
		}
		return ops, instances, nil
	})
	if err == nil {
		err = cerr
	}
	return done, err
}

// encrypt is one charged encryption batch under a handle of the context's
// key, on the next nonce seed, with `instances` logical values on the
// throughput counter.
func (c *Context) encrypt(pk *paillier.PublicKey, pts []mpint.Nat, instances int64) (cts []paillier.Ciphertext, err error) {
	_, err = c.chargeHE(func() (int64, int64, error) {
		cts, err = c.Backend.EncryptVec(pk, pts, c.nextSeed())
		return int64(len(cts)), instances, err
	})
	return cts, err
}

// decrypt is one charged decryption batch of cts under the context's key,
// with count logical values on the throughput counter.
func (c *Context) decrypt(cts []paillier.Ciphertext, count int) (pts []mpint.Nat, err error) {
	_, err = c.chargeHE(func() (int64, int64, error) {
		pts, err = c.Backend.DecryptVec(c.Key, cts)
		return int64(len(cts)), int64(count), err
	})
	return pts, err
}

// checkHandle rejects a key handle that is not one of the context's own key:
// ciphertexts under any other key would aggregate and decrypt to noise.
func (c *Context) checkHandle(pk *paillier.PublicKey) error {
	if pk == nil || mpint.Cmp(pk.N, c.Key.N) != 0 {
		return fmt.Errorf("fl: encryption key is not a handle of the context's key")
	}
	return nil
}

// AggregateCiphertexts homomorphically sums per-party ciphertext batches
// (the server side of Fig. 2). All batches must have equal length.
func (c *Context) AggregateCiphertexts(batches [][]paillier.Ciphertext) ([]paillier.Ciphertext, error) {
	if len(batches) == 0 {
		return nil, fmt.Errorf("fl: no batches to aggregate")
	}
	acc := batches[0]
	for i := 1; i < len(batches); i++ {
		if len(batches[i]) != len(acc) {
			return nil, fmt.Errorf("fl: batch %d has %d ciphertexts, want %d", i, len(batches[i]), len(acc))
		}
		sum, _, err := c.addCiphertexts(acc, batches[i])
		if err != nil {
			return nil, err
		}
		if i > 1 { // a running sum of this fold's own, not the caller's batch
			ReleaseCiphertexts(acc)
		}
		acc = sum
	}
	return acc, nil
}

// NewAggTree builds an empty hierarchical aggregation tree over this
// context's key and backend, its folds and forwards charged to the context's
// cost model (AggTree).
func (c *Context) NewAggTree(fanout int) (*AggTree, error) {
	if fanout < 0 || fanout == 1 {
		return nil, fmt.Errorf("fl: aggregation fan-out %d must be ≥ 2 (or 0 for unbounded)", fanout)
	}
	return &AggTree{ctx: c, fanout: fanout}, nil
}

// DecryptAggregated runs the decryption phase (steps ⑤–⑨ of Fig. 4) for an
// aggregate of `parties` contributions carrying `count` gradient values.
func (c *Context) DecryptAggregated(cts []paillier.Ciphertext, count, parties int) ([]float64, error) {
	pts, err := c.decrypt(cts, count)
	if err != nil {
		return nil, err
	}
	vals, err := c.Packer.DecodeAggregated(pts, count, parties)
	arena.putPlain(pts)
	return vals, err
}

// CiphertextWireBytes is the encoded size of a ciphertext batch on the wire.
func (c *Context) CiphertextWireBytes(n int) int64 {
	return int64(n) * (int64(c.Key.CiphertextBytes()) + 4)
}

// RecordTransfer charges one message of n bytes to the communication
// component through the link model.
func (c *Context) RecordTransfer(n int64) {
	c.Costs.AddComm(c.Link.TransferTime(n), n)
}

// deliver is the round's one real send: a failed send is re-sent at once,
// up to Profile.Round.MaxRetries times. No transport here has a failure that
// waiting clears, so a retry costs wire, not wall time: each failed attempt
// that is followed by a retry is charged as retry traffic through the link
// model, the delivered message as one transfer. A send that never succeeds
// returns the last attempt's error.
func (c *Context) deliver(tr flnet.Transport, msg flnet.Message) error {
	size := msg.WireSize()
	for retry := 0; ; retry++ {
		err := tr.Send(msg)
		if err == nil {
			c.RecordTransfer(size)
			return nil
		}
		if retry == c.Profile.Round.MaxRetries {
			return err
		}
		c.Costs.AddRetry(c.Link.TransferTime(size), size)
	}
}

// TrackOther measures fn as model-computation ("other") time.
func (c *Context) TrackOther(fn func()) {
	start := time.Now()
	fn()
	c.Costs.AddOther(time.Since(start))
}

// Utilization reports the fleet's average SM utilization, launch-weighted as
// the published gpu.<label>.avg_utilization gauge is (0 for CPU profiles,
// which have no device) — the Fig. 6 reading.
func (c *Context) Utilization() float64 { return gpu.Sum(c.Checked.Devices()).AvgUtilization() }
