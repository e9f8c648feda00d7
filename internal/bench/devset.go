package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"flbooster/internal/core"
	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
)

// devsetJSON is where Devset writes its machine-readable report.
const devsetJSON = "BENCH_devset.json"

// Devset workload parameters: an encrypt-heavy vector batch (encrypt, two
// homomorphic folds, decrypt) large enough that every swept device count
// gets multi-item shards.
const (
	devsetItems = 256
	devsetFolds = 2
	// devsetKillAt is the death leg's launch ordinal: device 1 aborts every
	// launch from its third on — the second fold, with the encryption (one
	// launch) and the first fold behind it and the decryption still to come. It
	// was the fifth, the same fold, when an encryption took three launches.
	devsetKillAt = 3
	// devsetBackoff keeps the death leg's modelled retry delay small against
	// kernel cost, so the lost-throughput bound measures rebalancing, not an
	// arbitrary penalty box.
	devsetBackoff = 100 * time.Microsecond
)

// devsetRow is one device count of the scaling sweep.
type devsetRow struct {
	Devices int `json:"devices"`
	// SimNs is the set's merged (max-over-devices) modelled time for the
	// whole workload; Speedup its ratio to the D=1 row.
	SimNs   int64   `json:"sim_ns"`
	Speedup float64 `json:"speedup_vs_1"`
	// ParallelNs/SequentialNs split the measured span from the
	// sum-over-devices cost the sharding saves.
	ParallelNs   int64 `json:"parallel_ns"`
	SequentialNs int64 `json:"sequential_ns"`
	Shards       int64 `json:"shards"`
	// BitExact reports the row's decrypted sums matching the D=1 reference
	// bit for bit.
	BitExact bool  `json:"bit_exact"`
	WallNs   int64 `json:"wall_ns"`
}

// devsetDeathRow is the graceful-degradation leg: one of D devices killed
// mid-batch.
type devsetDeathRow struct {
	Devices     int   `json:"devices"`
	SimNs       int64 `json:"sim_ns"`
	Steals      int64 `json:"steals"`
	RebalanceNs int64 `json:"rebalance_ns"`
	// LostThroughput is 1 − healthySim/deathSim: the fraction of the healthy
	// D-device throughput the fault costs. Must stay under 1.5/D.
	LostThroughput float64 `json:"lost_throughput"`
	BitExact       bool    `json:"bit_exact"`
}

// devsetReport is the BENCH_devset.json schema.
type devsetReport struct {
	KeyBits int            `json:"key_bits"`
	Items   int            `json:"items"`
	Folds   int            `json:"folds"`
	Rows    []devsetRow    `json:"rows"`
	Death   devsetDeathRow `json:"death"`
}

// devsetOut is one run's results: the ciphertext batch after the folds and
// the decrypted sums, both compared bit-for-bit across device counts.
type devsetOut struct {
	cts []paillier.Ciphertext
	dec []mpint.Nat
}

func (o devsetOut) equal(ref devsetOut) bool {
	if len(o.cts) != len(ref.cts) || len(o.dec) != len(ref.dec) {
		return false
	}
	for i := range o.cts {
		if mpint.Cmp(o.cts[i].C, ref.cts[i].C) != 0 {
			return false
		}
	}
	for i := range o.dec {
		if mpint.Cmp(o.dec[i], ref.dec[i]) != 0 {
			return false
		}
	}
	return true
}

// devsetRun executes the encrypt-heavy workload on a fresh D-device set and
// returns the results with the set's statistics. With kill set, device 1 is
// armed to die mid-encrypt.
func (r *Runner) devsetRun(sk *paillier.PrivateKey, ms []mpint.Nat, d int, kill bool) (devsetOut, gpu.SetStats, error) {
	check := ghe.CheckedConfig{}
	if kill {
		check.Backoff = devsetBackoff
	}
	st, err := core.NewStack(r.cfg.Device, true, d, gpu.FaultConfig{}, check)
	if err != nil {
		return devsetOut{}, gpu.SetStats{}, err
	}
	if kill {
		st.DevSet.Device(1).SetFaultInjector(gpu.NewFaultInjector(gpu.FaultConfig{
			Seed: r.cfg.Seed, KillAtLaunch: devsetKillAt,
		}))
	}
	backend := st.Backend
	pk := &sk.PublicKey
	cts, err := backend.EncryptVec(pk, ms, r.cfg.Seed)
	if err != nil {
		return devsetOut{}, gpu.SetStats{}, fmt.Errorf("bench: devset D=%d encrypt: %w", d, err)
	}
	sum := cts
	for f := 0; f < devsetFolds; f++ {
		if sum, err = backend.AddVec(pk, sum, cts); err != nil {
			return devsetOut{}, gpu.SetStats{}, fmt.Errorf("bench: devset D=%d fold %d: %w", d, f, err)
		}
	}
	dec, err := backend.DecryptVec(sk, sum)
	if err != nil {
		return devsetOut{}, gpu.SetStats{}, fmt.Errorf("bench: devset D=%d decrypt: %w", d, err)
	}
	return devsetOut{cts: sum, dec: dec}, st.DevSet.Stats(), nil
}

// Devset sweeps the simulated device count over the encrypt-heavy workload
// at the config's largest key size, asserting near-linear sim-time scaling
// (speedup ≥ 0.75·D at the largest D) with bit-exact results at every D,
// then runs the 1-of-D death leg: one device killed mid-batch must stay
// bit-exact while losing less than 1.5/D of the healthy throughput. A nil
// devices slice sweeps {1, 2, 4, 8}. Results go to BENCH_devset.json.
func (r *Runner) Devset(w io.Writer, devices []int) error {
	if len(devices) == 0 {
		devices = []int{1, 2, 4, 8}
	}
	keyBits := r.cfg.KeyBits[len(r.cfg.KeyBits)-1]
	if r.cfg.Devices > 0 {
		found := false
		for _, d := range devices {
			found = found || d == r.cfg.Devices
		}
		if !found {
			devices = append(devices, r.cfg.Devices)
		}
	}
	// The scaling gate and the death leg both key off the largest device
	// count, so an appended -devices value must not end up last by accident.
	sort.Ints(devices)
	fmt.Fprintf(w, "Devset — multi-device sharding sweep: %d-bit key, %d items, %d folds\n",
		keyBits, devsetItems, devsetFolds)
	fmt.Fprintf(w, "%8s %14s %10s %8s %8s %10s\n", "devices", "sim", "speedup", "shards", "exact", "wall")

	sk, err := paillier.GenerateKey(mpint.NewRNG(r.cfg.Seed), keyBits)
	if err != nil {
		return fmt.Errorf("bench: devset keygen: %w", err)
	}
	rng := mpint.NewRNG(r.cfg.Seed + 1)
	ms := make([]mpint.Nat, devsetItems)
	for i := range ms {
		ms[i] = rng.RandBelow(sk.PublicKey.N)
	}

	report := devsetReport{KeyBits: keyBits, Items: devsetItems, Folds: devsetFolds}
	var ref devsetOut
	var baseSim time.Duration
	var lastHealthy devsetRow
	for i, d := range devices {
		start := time.Now()
		out, st, err := r.devsetRun(sk, ms, d, false)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		sim := st.SimParallelTime + st.HostSim
		row := devsetRow{
			Devices:      d,
			SimNs:        int64(sim),
			ParallelNs:   int64(st.SimParallelTime),
			SequentialNs: int64(st.SimSequentialTime),
			Shards:       st.Shards,
			WallNs:       int64(wall),
		}
		if i == 0 {
			ref, baseSim = out, sim
			row.BitExact, row.Speedup = true, 1
			if devices[0] != 1 {
				return fmt.Errorf("bench: devset sweep must start at D=1, got %d", devices[0])
			}
		} else {
			row.BitExact = out.equal(ref)
			row.Speedup = float64(baseSim) / float64(sim)
		}
		if !row.BitExact {
			return fmt.Errorf("bench: devset D=%d diverged from the sequential reference", d)
		}
		report.Rows = append(report.Rows, row)
		lastHealthy = row
		fmt.Fprintf(w, "%8d %14s %9.2fx %8d %8v %10s\n",
			d, fmtDur(sim), row.Speedup, row.Shards, row.BitExact, fmtDur(wall))
	}

	// Near-linear scaling gate at the largest healthy D.
	maxD := lastHealthy.Devices
	if minSpeedup := 0.75 * float64(maxD); maxD > 1 && lastHealthy.Speedup < minSpeedup {
		return fmt.Errorf("bench: devset speedup %.2fx at D=%d below the %.2fx near-linear gate",
			lastHealthy.Speedup, maxD, minSpeedup)
	}

	// Death leg: kill 1 of D mid-batch at the largest swept D.
	if maxD > 1 {
		out, st, err := r.devsetRun(sk, ms, maxD, true)
		if err != nil {
			return err
		}
		sim := st.SimParallelTime + st.HostSim
		death := devsetDeathRow{
			Devices:        maxD,
			SimNs:          int64(sim),
			Steals:         st.Steals,
			RebalanceNs:    int64(st.RebalanceSim),
			LostThroughput: 1 - float64(lastHealthy.SimNs)/float64(sim),
			BitExact:       out.equal(ref),
		}
		report.Death = death
		fmt.Fprintf(w, "death %2d %14s %9.2f%% %8d %8v   (steals %d)\n",
			maxD, fmtDur(sim), 100*death.LostThroughput, st.Shards, death.BitExact, death.Steals)
		if !death.BitExact {
			return fmt.Errorf("bench: devset death leg diverged from the sequential reference")
		}
		if death.Steals == 0 {
			return fmt.Errorf("bench: devset death leg triggered no work stealing")
		}
		if bound := 1.5 / float64(maxD); death.LostThroughput >= bound {
			return fmt.Errorf("bench: devset death leg lost %.1f%% of throughput, bound %.1f%%",
				100*death.LostThroughput, 100*bound)
		}
	}

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(devsetJSON, append(blob, '\n'), 0o644)
}
