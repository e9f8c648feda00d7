package main

// layers accumulates, over the traced steps of one pass, the deltas of the
// public counters and what crossed the HE boundary, and turns them plus the
// probes into the per-layer metrics.
type layers struct {
	in       *instance
	tr       *tracer
	steps    int
	wall     float64  // host seconds inside the traced steps
	sum      counters // counter deltas summed over the traced steps
	heapPeak uint64   // max HeapInuse seen at a traced step's end
	ops      map[string]*opCount
	dropped  int
}

func newLayers(in *instance, tr *tracer) *layers {
	return &layers{in: in, tr: tr, ops: map[string]*opCount{}}
}

// tracedStep runs one step with a span around it, the counting backend
// under it and counter readings on both sides.
func (l *layers) tracedStep(i int) stepOut {
	ctx := l.in.ctx
	id := l.tr.begin("step", 0, i)
	bare := ctx.Backend
	ctx.Backend = &tracedBackend{Backend: bare, tr: l.tr, parent: id, step: i, ops: l.ops}
	before, _ := readCounters(ctx)
	out := l.in.step()
	after, heap := readCounters(ctx)
	ctx.Backend = bare
	l.tr.end(id)

	l.steps++
	l.wall += out.wall.Seconds()
	l.sum.add(after.sub(before))
	if heap > l.heapPeak {
		l.heapPeak = heap
	}
	if !l.in.spec.epoch() {
		l.dropped += len(l.in.lastRound.Dropped)
	}
	return out
}

// probeKinds maps an HE operation kind to the probe that prices it.
var probeKinds = map[string]string{
	"encrypt":  "paillier.encrypt_ns_per_ct",
	"decrypt":  "paillier.decrypt_ns_per_ct",
	"add":      "paillier.add_ns_per_ct",
	"mulplain": "paillier.mulplain_ns_per_ct",
}

// finish runs the probes and writes every per-layer metric into res.
func (l *layers) finish(res *result, smoke bool) error {
	m := res.Metrics
	in, ctx := l.in, l.in.ctx
	if err := runProbes(in, l.tr, m, smoke); err != nil {
		return err
	}
	n := float64(l.steps)
	d := l.sum
	per := func(name string, c int) { m[name] = d[c] / n }

	per("gpu.launches_per_step", cLaunches)
	per("gpu.kernel_wall_s_per_step", cKernelWall)
	per("gpu.sim_compute_s_per_step", cSimCompute)
	per("gpu.sim_transfer_s_per_step", cSimTransfer)
	per("gpu.h2d_bytes_per_step", cH2D)
	per("gpu.d2h_bytes_per_step", cD2H)
	if d[cUtilCount] > 0 {
		m["gpu.occupancy"] = d[cUtilSum] / d[cUtilCount]
	}
	if d[cHESim] > 0 {
		m["ghe.values_per_sim_s"] = d[cInstances] / d[cHESim]
	}
	m["paillier.keygen_s"] = in.newCtx.Seconds()
	m["datasets.generate_s"] = in.generate.Seconds()
	if ctx.Packer != nil {
		m["batch.slots"] = float64(ctx.Packer.Slots())
	}
	if d[cCiphertexts] > 0 {
		m["batch.compression_ratio"] = d[cPlainvals] / d[cCiphertexts]
	}

	per("flnet.msgs_per_step", cCommMsgs)
	if d[cCommMsgs] > 0 {
		m["flnet.bytes_per_msg"] = d[cCommBytes] / d[cCommMsgs]
	}
	per("flnet.comm_sim_s_per_step", cCommSim)
	per("flnet.retry_msgs_per_step", cRetryMsgs)

	per("fl.he_wall_s_per_step", cHEWall)
	per("fl.he_sim_s_per_step", cHESim)
	per("fl.encode_wall_s_per_step", cEncodeWall)
	per("fl.he_ops_per_step", cHEOps)
	per("fl.ciphertexts_per_step", cCiphertexts)
	per("models.compute_wall_s_per_step", cOtherWall)
	// The round loop, codec and transport: what is left of the step once the
	// terms the program itself times are taken out.
	m["fl.runtime_wall_s_per_step"] = (l.wall - d[cHEWall] - d[cEncodeWall] - d[cOtherWall]) / n
	m["fl.dropped_per_step"] = float64(l.dropped) / n

	if rep := in.lastRound; rep.Anatomy != nil {
		for _, ph := range rep.Anatomy.Phases {
			name := ph.Phase
			if name == "contribute" { // a tree round's merged upload+gather
				name = "upload"
			}
			m["fl."+name+"_sim_s"] += float64(ph.OverlappedSimNs()) / 1e9
		}
		res.Labels["fl.dominant_phase"] = rep.Anatomy.Dominant()
		m["fl.peak_live_cts"] = float64(rep.PeakLiveCts)
		if rep.Tree != nil {
			m["fl.tree_depth"] = float64(rep.Tree.Depth)
			m["fl.tree_folds_per_step"] = float64(rep.Tree.Folds)
		}
	}

	per("runtime.allocs_per_step", cMallocs)
	m["runtime.heap_peak_mb"] = float64(l.heapPeak) / 1e6
	m["runtime.gc_pause_ms_per_step"] = d[cGCPause] / n * 1e3

	// The ladder: does the layer below explain the layer above? HE wall from
	// the operations that crossed the boundary priced at the probed cost, and
	// the whole step from the terms the layers account for.
	var heExplained float64
	for kind, oc := range l.ops {
		heExplained += float64(oc.items) * m[probeKinds[kind]] / 1e9
	}
	if d[cHEWall] > 0 {
		m["ladder.he_explained_share"] = heExplained / d[cHEWall]
	}
	wireCts := d[cCommBytes] / float64(ctx.CiphertextWireBytes(1))
	explained := d[cHEWall] + d[cEncodeWall] + d[cOtherWall] +
		d[cCommMsgs]*m["flnet.sendrecv_us_per_msg"]/1e6 +
		wireCts*(m["flnet.encode_ns_per_ct"]+m["flnet.decode_ns_per_ct"])/1e9
	if l.wall > 0 {
		m["ladder.step_explained_share"] = explained / l.wall
	}
	return nil
}
