package fl

import (
	"fmt"
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
// It has no identity: what encrypts, sends or decrypts is a Party or a
// Holder built on it (NewParty, NewHolder).
type Context struct {
	Profile Profile
	// Key is the key pair, kept for the frozen benchmark/; in fl only a
	// Holder's construction reads it. pub is its public half, the one every
	// shared operation uses.
	Key     *paillier.PrivateKey
	pub     *paillier.PublicKey
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
	// nonces is the one nonce stream every party of the context draws from.
	nonces nonceStream
	// inner, mask and bases are BroadcastSums' scratch, reused from batch to
	// batch: its inner sums, the trivial plaintext crossMask writes, and the
	// broadcast beside the trivial encryptions.
	inner [][]mpint.Term
	mask  mpint.Nat
	bases []paillier.Ciphertext
	wave  uploads
	// tree is the in-process transport a bounded AggTree forwards its
	// partials on, kept from round to round. A Context's round path runs on
	// one goroutine, so nothing else uses it at the same time.
	tree flnet.Transport
}

// NewContext builds a context from a profile, generating a fresh key pair
// from the profile's seed.
func NewContext(p Profile) (*Context, error) {
	q, pk, err := p.validate()
	if err != nil {
		return nil, err
	}
	ctx := &Context{
		Profile: p,
		Quant:   q,
		Packer:  pk,
		Link:    flnet.FATEEffectiveLink(),
		Costs:   &Costs{},
		nonces:  nonceStream{p.Seed},
		tree:    flnet.NewSimTransport(flnet.Link{}, treeNode),
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
	ctx.pub = &ctx.Key.PublicKey
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
// The batch is a public-key one (EncryptNats), shaped like EncryptBroadcast,
// whatever the party: a vertical model's host encrypting under the arbiter's
// key. A Fig. 2 client encrypts under its holder handle through Client.Upload
// instead.
func (p *Party) EncryptGradients(grads []float64) ([]paillier.Ciphertext, error) {
	pts, err := p.ctx.encode(grads)
	if err != nil {
		return nil, err
	}
	cts, err := p.EncryptNats(pts, int64(len(grads)))
	arena.putPlain(pts)
	if err != nil {
		return nil, err
	}
	p.ctx.Costs.AddCompression(int64(len(grads)), int64(len(cts)))
	return cts, nil
}

// encode is the first step of a gradient upload: the encode
// (EncodePlaintexts), charged to the encode component.
func (c *Context) encode(grads []float64) ([]mpint.Nat, error) {
	start := time.Now()
	pts, err := c.EncodePlaintexts(grads)
	if err == nil {
		c.Costs.AddEncode(time.Since(start), encodeSim(len(grads)), int64(len(grads)))
	}
	return pts, err
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

// CiphertextWireBytes is the encoded size of a batch of n ciphertexts on the
// wire when one of them is as wide as n² (flnet.BatchSize at that width). A
// batch whose every value has a leading zero byte is a byte a value narrower.
func (c *Context) CiphertextWireBytes(n int) int64 {
	return int64(flnet.BatchSize(n, c.pub.CiphertextBytes()))
}

// deliver is the one send every message takes — the round's, the vertical
// protocols' and a bounded aggregation tree's interior forwards — and the
// one place a message is charged, at its WireSize through the link model. A
// failed send is re-sent at once, up to Profile.Round.MaxRetries times. No
// transport here has a failure that waiting clears, so a retry costs wire,
// not wall time: each failed attempt that is followed by a retry is charged
// as retry traffic, the delivered message as one transfer. A send that never
// succeeds returns the last attempt's error.
func (c *Context) deliver(tr flnet.Transport, msg flnet.Message) error {
	size := msg.WireSize()
	for retry := 0; ; retry++ {
		err := tr.Send(msg)
		if err == nil {
			c.Costs.AddComm(c.Link.TransferTime(size), size)
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
