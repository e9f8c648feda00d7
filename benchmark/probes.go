package main

import (
	"fmt"
	"runtime"
	"time"

	"flbooster/internal/flnet"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
)

// Probe pacing: a probe repeats until it has enough time on the clock for
// the short ones to mean something and enough repetitions for a median,
// except that one whose single call runs for seconds (a 2048-bit encrypt
// batch) is not repeated past probeSlow.
const (
	probeMinReps = 3
	probeMaxReps = 2000
	probeBudget  = 150 * time.Millisecond
	probeSlow    = 2 * time.Second
)

// probed is one probe's outcome per unit of work: median host ns, mean
// heap allocations, and mean modelled device ns.
type probed struct{ ns, allocs, simNs float64 }

// prober times the layers' public functions directly, at the workload's own
// operand shape, each call inside a span.
type prober struct {
	in    *instance
	tr    *tracer
	top   int // the enclosing "probes" span
	smoke bool
}

// run times fn, which does `per` units of work per call.
func (p *prober) run(name string, per int, fn func() error) (probed, error) {
	ctx := p.in.ctx
	var walls []float64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var sim time.Duration
	if ctx.Device != nil {
		sim = ctx.Device.Stats().SimTime()
	}
	var spent time.Duration
	for len(walls) < probeMaxReps && (spent < probeBudget || (len(walls) < probeMinReps && spent < probeSlow)) {
		id := p.tr.begin("probe."+name, p.top, -1)
		start := time.Now()
		err := fn()
		d := time.Since(start)
		p.tr.end(id)
		if err != nil {
			return probed{}, fmt.Errorf("probe %s: %w", name, err)
		}
		walls = append(walls, float64(d.Nanoseconds()))
		spent += d
		if p.smoke {
			break
		}
	}
	runtime.ReadMemStats(&ms)
	units := float64(len(walls) * per)
	out := probed{ns: median(walls) / float64(per), allocs: float64(ms.Mallocs-mallocs) / units}
	if ctx.Device != nil {
		out.simNs = float64(ctx.Device.Stats().SimTime()-sim) / units
	}
	return out, nil
}

// runProbes measures every probe metric into m. Operands are drawn from the
// instance's seed, at the workload's modulus (n² and n of its key) and its
// batch width B.
func runProbes(in *instance, tr *tracer, m map[string]float64, smoke bool) error {
	p := &prober{in: in, tr: tr, smoke: smoke}
	p.top = tr.begin("probes", 0, -1)
	defer tr.end(p.top)
	ctx := in.ctx
	pk := &ctx.Key.PublicKey
	mont := pk.MontN2()
	rng := mpint.NewRNG(in.seed ^ 0x70726f6265) // "probe"
	width, values := in.width()
	below := func(n int, bound mpint.Nat) []mpint.Nat {
		out := make([]mpint.Nat, n)
		for i := range out {
			out[i] = rng.RandBelow(bound)
		}
		return out
	}
	var firstErr error
	probe := func(name string, per int, fn func() error) probed {
		out, err := p.run(name, per, fn)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return out
	}

	// mpint: the Montgomery multiply and the two exponent lengths the HE
	// layer uses it with — n bits (the nonce term) and r bits (a scalar).
	x, y := mont.ToMont(rng.RandBelow(pk.N2)), mont.ToMont(rng.RandBelow(pk.N2))
	const mulBatch = 256
	m["mpint.montmul_ns"] = probe("mpint.montmul", mulBatch, func() error {
		for i := 0; i < mulBatch; i++ {
			x = mont.Mul(x, y)
		}
		return nil
	}).ns
	long := probe("mpint.modexp", 1, func() error { x = mont.Exp(x, pk.N); return nil })
	m["mpint.modexp_ns"], m["mpint.modexp_allocs"] = long.ns, long.allocs
	short := rng.RandBits(int(ctx.Profile.RBits))
	m["mpint.modexp_short_ns"] = probe("mpint.modexp_short", 1, func() error { x = mont.Exp(x, short); return nil }).ns

	// ghe: the two vector kernels at width B, on both clocks.
	bases, other := below(width, pk.N2), below(width, pk.N2)
	ev := probe("ghe.modexp_vec", width, func() error { _, err := ctx.Checked.ModExpVec(bases, pk.N, mont); return err })
	m["ghe.modexp_vec_ns_per_item"], m["ghe.modexp_vec_sim_ns_per_item"] = ev.ns, ev.simNs
	mv := probe("ghe.modmul_vec", width, func() error { _, err := ctx.Checked.ModMulVec(bases, other, mont); return err })
	m["ghe.modmul_vec_ns_per_item"], m["ghe.modmul_vec_sim_ns_per_item"] = mv.ns, mv.simNs

	// paillier: the backend the rounds use, at width B.
	pts := below(width, pk.N)
	var cts, cts2 []paillier.Ciphertext
	enc := probe("paillier.encrypt", width, func() (err error) {
		cts2 = cts
		cts, err = ctx.Backend.EncryptVec(pk, pts, in.seed)
		return err
	})
	m["paillier.encrypt_ns_per_ct"], m["paillier.encrypt_sim_ns_per_ct"], m["paillier.encrypt_allocs_per_ct"] = enc.ns, enc.simNs, enc.allocs
	if firstErr != nil {
		return firstErr
	}
	if cts2 == nil {
		cts2 = cts
	}
	m["paillier.add_ns_per_ct"] = probe("paillier.add", width, func() error { _, err := ctx.Backend.AddVec(pk, cts, cts2); return err }).ns
	dec := probe("paillier.decrypt", width, func() error { _, err := ctx.Backend.DecryptVec(ctx.Key, cts); return err })
	m["paillier.decrypt_ns_per_ct"], m["paillier.decrypt_sim_ns_per_ct"], m["paillier.decrypt_allocs_per_ct"] = dec.ns, dec.simNs, dec.allocs
	scalars := make([]mpint.Nat, width)
	for i := range scalars {
		scalars[i] = short
	}
	m["paillier.mulplain_ns_per_ct"] = probe("paillier.mulplain", width, func() error { _, err := ctx.Backend.MulPlainVec(pk, cts, scalars); return err }).ns

	// gpu: what one launch costs beyond the arithmetic it carries — a
	// one-item homomorphic add against the bare kernel body.
	one, one2 := cts[:1], cts2[:1]
	launch := probe("gpu.launch", 1, func() error { _, err := ctx.Backend.AddVec(pk, one, one2); return err })
	body := probe("gpu.launch_body", 1, func() error {
		x = mont.FromMont(mont.Mul(mont.ToMont(one[0].C), mont.ToMont(one2[0].C)))
		return nil
	})
	m["gpu.launch_overhead_us"] = (launch.ns - body.ns) / 1e3

	// quant / batch: one party's gradient vector for one step.
	grad := gradients(nil, in.seed, 0, 1, values)[0]
	var qv []uint64
	m["quant.quantize_ns_per_value"] = probe("quant.quantize", values, func() error { qv = ctx.Quant.QuantizeVec(grad); return nil }).ns
	if ctx.Packer != nil {
		var packed []mpint.Nat
		m["batch.pack_ns_per_value"] = probe("batch.pack", values, func() (err error) { packed, err = ctx.Packer.Pack(qv); return err }).ns
		m["batch.unpack_ns_per_value"] = probe("batch.unpack", values, func() error { _, err := ctx.Packer.Unpack(packed, values); return err }).ns
	}

	// flnet: the codec on B ciphertext-sized values and one upload-sized
	// message through the in-process transport.
	nats := make([]mpint.Nat, width)
	for i := range nats {
		nats[i] = cts[i].C
	}
	var payload []byte
	var scratch []mpint.Nat
	m["flnet.encode_ns_per_ct"] = probe("flnet.encode", width, func() error { payload = flnet.AppendNats(payload[:0], nats); return nil }).ns
	m["flnet.decode_ns_per_ct"] = probe("flnet.decode", width, func() (err error) { scratch, err = flnet.DecodeNatsInto(scratch, payload); return err }).ns
	net := flnet.NewSimTransport(ctx.Link, "client0", "server")
	defer net.Close()
	msg := flnet.Message{From: "client0", To: "server", Kind: "grads", Round: 1, Payload: payload}
	m["flnet.sendrecv_us_per_msg"] = probe("flnet.sendrecv", 1, func() error {
		if err := net.Send(msg); err != nil {
			return err
		}
		_, err := net.Recv("server")
		return err
	}).ns / 1e3
	return firstErr
}
