package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// pipelineJSON is where Pipeline writes its machine-readable report.
const pipelineJSON = "BENCH_pipeline.json"

// pipelineTransferRate models pageable host staging buffers on the PCIe
// link. The device's peak copy-engine rate is only reachable from pinned
// memory; a federation client staging operand batches out of ordinary heap
// memory sees a fraction of it, which is exactly the transfer-heavy regime
// the Fig. 4 double-buffered pipeline targets.
const pipelineTransferRate = 6e9

// pipelineItems is the hom-add batch length for the chunk sweep.
const pipelineItems = 2048

// pipelineRow is one chunk-size measurement of the sweep.
type pipelineRow struct {
	// Chunk is items per chunk; Chunks the launches it took.
	Chunk  int   `json:"chunk"`
	Chunks int64 `json:"chunks"`
	// SeqSimNs is the chunked work run back-to-back; StreamSimNs the
	// critical path of the same chunks double-buffered across the h2d,
	// compute, and d2h streams.
	SeqSimNs    int64 `json:"seq_sim_ns"`
	StreamSimNs int64 `json:"stream_sim_ns"`
	// Speedup is the whole-batch sequential baseline over StreamSimNs, so
	// per-launch overheads of chunking count against the pipeline.
	Speedup float64 `json:"speedup"`
}

// pipelineReport is the BENCH_pipeline.json schema.
type pipelineReport struct {
	KeyBits             int           `json:"key_bits"`
	Workload            string        `json:"workload"`
	Items               int           `json:"items"`
	TransferBytesPerSec float64       `json:"transfer_bytes_per_sec"`
	SeqWholeBatchNs     int64         `json:"seq_whole_batch_ns"`
	Sweep               []pipelineRow `json:"sweep"`
	Best                pipelineRow   `json:"best"`
}

// Pipeline sweeps the streamed-execution chunk size on a transfer-heavy
// hom-add workload at the largest configured key size, comparing the
// whole-batch sequential launch against the double-buffered pipeline.
// Results go to w and to BENCH_pipeline.json.
func (r *Runner) Pipeline(w io.Writer) error {
	keyBits := r.cfg.KeyBits[len(r.cfg.KeyBits)-1]
	devCfg := r.cfg.Device
	devCfg.TransferBytesPerSec = pipelineTransferRate

	header(w, fmt.Sprintf("Pipeline — streamed chunk sweep: hom-add, %d-bit key, %d items, %.0f GB/s pageable transfers",
		keyBits, pipelineItems, pipelineTransferRate/1e9))

	// Hom-add operands live mod n², twice the key width.
	rng := mpint.NewRNG(r.cfg.Seed + 77)
	n := rng.RandBits(2 * keyBits)
	n[0] |= 1
	m := mpint.NewMont(n)
	a := make([]mpint.Nat, pipelineItems)
	b := make([]mpint.Nat, pipelineItems)
	for i := range a {
		a[i], b[i] = rng.RandBelow(n), rng.RandBelow(n)
	}

	// Whole-batch sequential baseline: one launch, no streaming.
	seqDev := gpu.MustNew(devCfg, true)
	seqDev.SetRecorder(r.obs.Recorder(), "sweep.whole.gpu")
	seqEng, err := ghe.NewEngine(seqDev)
	if err != nil {
		return err
	}
	if _, err := seqEng.ModMulVec(a, b, m); err != nil {
		return err
	}
	baseline := seqDev.Stats().SimTime()
	fmt.Fprintf(w, "%8s %8s %14s %14s %9s\n", "Chunk", "Launches", "Sequential", "Streamed", "Speedup")
	fmt.Fprintf(w, "%8s %8d %14s %14s %9s\n", "whole", 1, fmtDur(baseline), "-", "1.00x")

	report := pipelineReport{
		KeyBits:             keyBits,
		Workload:            "hom-add (ModMulVec mod n²)",
		Items:               pipelineItems,
		TransferBytesPerSec: pipelineTransferRate,
		SeqWholeBatchNs:     int64(baseline),
	}
	for _, chunk := range []int{64, 128, 256, 512, 1024} {
		dev := gpu.MustNew(devCfg, true)
		dev.SetRecorder(r.obs.Recorder(), fmt.Sprintf("sweep.chunk%d.gpu", chunk))
		eng, err := ghe.NewEngine(dev)
		if err != nil {
			return err
		}
		pipe := dev.NewPipeline(2)
		for base := 0; base < pipelineItems; base += chunk {
			end := base + chunk
			if end > pipelineItems {
				end = pipelineItems
			}
			pipe.Begin()
			_, mulErr := eng.ModMulVec(a[base:end], b[base:end], m)
			pipe.End()
			if mulErr != nil {
				return mulErr
			}
		}
		pipe.Close()
		st := dev.Stats()
		row := pipelineRow{
			Chunk:       chunk,
			Chunks:      st.StreamChunks,
			SeqSimNs:    int64(st.SimStreamSeqTime),
			StreamSimNs: int64(st.SimStreamTime),
			Speedup:     float64(baseline) / float64(st.SimStreamTime),
		}
		report.Sweep = append(report.Sweep, row)
		if row.Speedup > report.Best.Speedup {
			report.Best = row
		}
		fmt.Fprintf(w, "%8d %8d %14s %14s %8.2fx\n", row.Chunk, row.Chunks,
			fmtDur(st.SimStreamSeqTime), fmtDur(st.SimStreamTime), row.Speedup)
	}

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(pipelineJSON, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nbest chunk %d: %.2fx; wrote %s\n", report.Best.Chunk, report.Best.Speedup, pipelineJSON)
	return nil
}
