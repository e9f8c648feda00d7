package bench

import (
	"fmt"
	"io"
	"time"

	"flbooster/internal/fl"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// Ablation runs micro-ablations over the design decisions DESIGN.md §4
// calls out, beyond the paper's own Table V: the fine-grained resource
// manager, the Fig. 4 transfer/compute pipeline and the sliding-window width.
// Algorithm 2's limb axis has no ablation of its own: it runs as amm52's
// lanes and the cost model prices it in 32-bit word-ops (DESIGN.md §4).
func (r *Runner) Ablation(w io.Writer) error {
	if err := r.ablationResourceManager(w); err != nil {
		return err
	}
	if err := r.ablationPipeline(w); err != nil {
		return err
	}
	return r.ablationWindow(w)
}

// ablationResourceManager compares fine vs coarse block-size selection at
// HE register pressures across key sizes (the mechanism behind Fig. 6).
func (r *Runner) ablationResourceManager(w io.Writer) error {
	header(w, "Ablation A — resource manager: occupancy at HE register loads")
	fmt.Fprintf(w, "%6s %8s %14s %14s %14s\n", "Key", "Regs/thr", "Coarse occ.", "Fine occ.", "Fine block")
	fine := gpu.NewResourceManager(gpu.RTX3090(), true)
	coarse := gpu.NewResourceManager(gpu.RTX3090(), false)
	for _, keyBits := range r.cfg.KeyBits {
		limbs := 2 * keyBits / 32 // HE kernels work mod n²
		regs := 24 + limbs
		if regs > 255 {
			regs = 255
		}
		cb := coarse.PickBlockSize(1<<20, regs)
		fb := fine.PickBlockSize(1<<20, regs)
		fmt.Fprintf(w, "%6d %8d %13.1f%% %13.1f%% %14d\n",
			keyBits, regs,
			coarse.Occupancy(cb, regs)*100,
			fine.Occupancy(fb, regs)*100, fb)
	}
	return nil
}

// ablationPipeline measures the modelled gain from overlapping PCIe
// transfers with kernels (§V / Fig. 4) on an encryption workload: the same
// batches run chunk by chunk, each chunk's device time split into stages and
// scheduled double-buffered (makespan), versus run back-to-back.
func (r *Runner) ablationPipeline(w io.Writer) error {
	header(w, "Ablation B — pipelined processing: sequential vs overlapped stages")
	fmt.Fprintf(w, "%6s %8s %6s %14s %14s %9s\n", "Key", "Batch", "Chunk", "Sequential", "Pipelined", "Gain")
	const chunk = 8 // plaintexts per pipeline chunk
	for _, keyBits := range r.cfg.KeyBits {
		// The table reads one device's clock, so the experiment runs on a
		// context of its own.
		ctx, err := r.newContext(fl.SystemFLBooster, keyBits, fmt.Sprintf("ablationB-%d", keyBits))
		if err != nil {
			return err
		}
		grads := make([]float64, 512)
		for i := range grads {
			grads[i] = 0.01 * float64(i%13)
		}
		pts, err := ctx.EncodePlaintexts(grads)
		if err != nil {
			return err
		}
		// Several batches so the pipeline has something to overlap.
		var saved time.Duration
		var chunks []stages
		for b := 0; b < 8; b++ {
			chunks = chunks[:0]
			for base := 0; base < len(pts); base += chunk {
				before := ctx.Device.Stats()
				_, encErr := ctx.Backend.EncryptVec(&ctx.Key.PublicKey, pts[base:min(base+chunk, len(pts))], r.cfg.Seed+uint64(b))
				chunks = append(chunks, chunkStages(before, ctx.Device.Stats()))
				if encErr != nil {
					return encErr
				}
			}
			span, seq := makespan(chunks)
			saved += seq - span
		}
		seq := ctx.Device.Stats().SimTime()
		pipe := seq - saved
		gain := 1.0
		if pipe > 0 {
			gain = float64(seq) / float64(pipe)
		}
		fmt.Fprintf(w, "%6d %8d %6d %14s %14s %8.2fx\n",
			keyBits, len(grads), chunk, fmtDur(seq), fmtDur(pipe), gain)
	}
	return nil
}

// stages is one chunk's device time on the three queues a device overlaps:
// upload, kernel, download.
type stages struct{ h2d, kernel, d2h time.Duration }

// chunkStages splits the device time between two counter snapshots into
// stages: the transfer time between the two copy engines by byte share
// (evenly when no bytes moved), fault time — watchdog windows and retry
// backoff — onto the kernel queue. The stages sum to the
// SimTime delta.
func chunkStages(before, after gpu.Stats) stages {
	transfer := after.SimTransferTime - before.SimTransferTime
	kernel := after.SimComputeTime - before.SimComputeTime + after.SimFaultTime - before.SimFaultTime
	up := after.BytesHostToDev - before.BytesHostToDev
	total := up + after.BytesDevToHost - before.BytesDevToHost
	h2d := transfer / 2
	if total > 0 {
		h2d = time.Duration(int64(transfer) * up / total)
	}
	return stages{h2d, kernel, transfer - h2d}
}

// makespan schedules chunks in order on three queues with two staging
// buffers: a chunk's upload waits for the kernel two chunks back to free its
// buffer, its kernel for its upload, its download for its kernel. It returns
// when the last download ends and the chunks' sequential sum.
func makespan(chunks []stages) (span, seq time.Duration) {
	var up, kernel time.Duration
	var freed [2]time.Duration // kernel ends of the last two chunks, one a buffer
	for i, c := range chunks {
		up = max(up, freed[i%2]) + c.h2d
		kernel = max(kernel, up) + c.kernel
		freed[i%2] = kernel
		span = max(span, kernel) + c.d2h
		seq += c.h2d + c.kernel + c.d2h
	}
	return span, seq
}

// ablationWindow sweeps the sliding-window width for modular
// exponentiation, the §IV-A3 design choice.
func (r *Runner) ablationWindow(w io.Writer) error {
	header(w, "Ablation C — sliding-window width for modular exponentiation")
	fmt.Fprintf(w, "%6s", "Key")
	widths := []uint{1, 2, 3, 4, 5, 6}
	for _, wd := range widths {
		fmt.Fprintf(w, " %12s", fmt.Sprintf("w=%d", wd))
	}
	fmt.Fprintln(w)
	rng := mpint.NewRNG(r.cfg.Seed)
	for _, keyBits := range r.cfg.KeyBits {
		n := rng.RandBits(keyBits)
		n[0] |= 1
		m := mpint.NewMont(n)
		base := rng.RandBelow(n)
		e := rng.RandBits(keyBits)
		fmt.Fprintf(w, "%6d", keyBits)
		const reps = 3
		for _, wd := range widths {
			start := time.Now()
			for i := 0; i < reps; i++ {
				m.ExpWindow(base, e, wd)
			}
			fmt.Fprintf(w, " %12s", fmtDur(time.Since(start)/reps))
		}
		fmt.Fprintln(w)
	}
	return nil
}
