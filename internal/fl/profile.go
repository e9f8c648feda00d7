// Package fl is the federated-learning framework substrate: acceleration
// profiles (the FATE / HAFLO / FLBooster configurations plus the paper's
// ablations), the HE context that runs the Fig. 4 pipeline with full cost
// accounting (HE time, communication time, other time — the anatomy of
// Tables III, V and VI), and the secure-aggregation protocol of Fig. 2 that
// the four benchmark models in internal/models train over.
package fl

import (
	"fmt"

	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/quant"
)

// System identifies which evaluated system a profile reproduces.
type System string

// The systems compared throughout the paper's evaluation.
const (
	// SystemFATE: serial CPU Paillier, no compression — the baseline
	// framework (FATE v1.x behaviour).
	SystemFATE System = "FATE"
	// SystemHAFLO: GPU-accelerated HE operations with coarse resource
	// allocation, no compression.
	SystemHAFLO System = "HAFLO"
	// SystemFLBooster: GPU HE with the fine-grained resource manager plus
	// batch compression — the full system.
	SystemFLBooster System = "FLBooster"
	// SystemNoGHE: FLBooster without GPU HE (ablation "w/o GHE").
	SystemNoGHE System = "FLBooster w/o GHE"
	// SystemNoBC: FLBooster without batch compression (ablation "w/o BC").
	SystemNoBC System = "FLBooster w/o BC"
)

// Profile is one acceleration configuration. All five systems share every
// code path except the three toggles their System decides (UseGPU, UseBatch,
// FineRM), so ablation comparisons isolate exactly the module under study.
type Profile struct {
	// System names the configuration.
	System System
	// KeyBits is the Paillier key size (the paper sweeps 1024/2048/4096;
	// tests use smaller keys).
	KeyBits int
	// Parties is the number of federated participants p.
	Parties int
	// RBits is the quantization width; the paper uses r+b = 32 with two
	// overflow bits at p = 4 (so r = 30).
	RBits uint
	// GradBound is the quantizer's α.
	GradBound float64
	// Device is the GPU model for GPU profiles.
	Device gpu.Config
	// Devices is the simulated device count for GPU profiles: every GPU
	// context's executor owns that many Device-configured members and shards
	// every vector HE op across them (work stealing under faults,
	// merged max-over-devices clock). 0 and 1 both mean one device. Ignored on
	// CPU profiles, whose fleet has no member: the same executor serves all
	// their HE on the host loop, one item at a time, and its wall time is
	// their HE clock.
	Devices int
	// Seed drives every random choice for reproducibility.
	Seed uint64
	// Round governs fault tolerance of federation rounds: quorum, phase
	// deadlines, and send retries. The zero value is the strict protocol
	// (all parties required, no deadline, no retransmission).
	Round RoundPolicy
	// Faults governs fault tolerance of the GPU-HE substrate: device fault
	// injection and the checked-execution policy (retries, verification,
	// CPU fallback). The zero value injects nothing and checks with
	// defaults. Ignored on CPU profiles: with no member there is no launch to
	// fault, retry or verify.
	Faults FaultPolicy
	// Byz arms the seeded Byzantine-client injector: a fixed compromised
	// cohort rewrites its gradient uploads per the configured attack model.
	// The zero value is an all-honest federation.
	Byz AdversaryConfig
	// Defense arms group-wise robust aggregation: clients are partitioned
	// into seeded groups, HE-summed per group, and only the group sums are
	// decrypted and robustly combined. The zero value is the one-group round:
	// a single aggregate, byte-identical to the pre-defense protocol.
	Defense DefensePolicy
	// Cohort configures cross-device scale: per-round seeded cohort sampling
	// (Size clients scheduled out of the Parties population), hierarchical
	// fan-out-bounded tree aggregation with streaming partial folds, and
	// bounded in-flight uploads. The zero value is the flat all-parties
	// round — one admission wave, unbounded fan-out — byte-identical to the
	// pre-cohort protocol.
	Cohort CohortPolicy
}

// FaultPolicy is the device-side counterpart of RoundPolicy: what faults to
// inject into the simulated GPU and how the checked execution layer reacts.
type FaultPolicy struct {
	// Inject configures the seeded device fault injector; the zero value
	// injects no faults.
	Inject gpu.FaultConfig
	// Check configures retry/verification/fallback; zero fields take the
	// CheckedConfig defaults.
	Check ghe.CheckedConfig
}

// NewProfile returns the standard configuration for a system at the given
// key size and party count.
func NewProfile(sys System, keyBits, parties int) Profile {
	p := Profile{
		System:    sys,
		KeyBits:   keyBits,
		Parties:   parties,
		RBits:     30, // r + b = 32 at p ≤ 4, the paper's setting
		GradBound: 1,
		Device:    gpu.RTX3090(),
		Seed:      1,
	}
	return p
}

// UseGPU reports whether the system's fleet has members for the HE
// executor to launch on: HAFLO, FLBooster and w/o BC. An unknown system has
// every toggle off and is rejected by Validate.
func (p Profile) UseGPU() bool {
	return p.System == SystemHAFLO || p.System == SystemFLBooster || p.System == SystemNoBC
}

// UseBatch reports whether the system compresses batches: FLBooster and
// w/o GHE.
func (p Profile) UseBatch() bool { return p.System == SystemFLBooster || p.System == SystemNoGHE }

// FineRM reports whether the system runs the fine-grained resource manager:
// FLBooster and w/o BC.
func (p Profile) FineRM() bool { return p.System == SystemFLBooster || p.System == SystemNoBC }

// knownSystem reports whether sys is one of the evaluated configurations.
func knownSystem(sys System) bool {
	for _, s := range AllSystems() {
		if s == sys {
			return true
		}
	}
	return false
}

// Validate reports profile configuration errors.
func (p Profile) Validate() error {
	switch {
	case !knownSystem(p.System):
		return fmt.Errorf("fl: unknown system %q", p.System)
	case p.KeyBits < 32:
		return fmt.Errorf("fl: key size %d too small", p.KeyBits)
	case p.KeyBits%2 != 0:
		// paillier.GenerateKey multiplies two KeyBits/2-bit primes.
		return fmt.Errorf("fl: key size %d is odd", p.KeyBits)
	case p.Parties < 1:
		return fmt.Errorf("fl: need at least one party, got %d", p.Parties)
	case p.Devices < 0:
		return fmt.Errorf("fl: negative device count %d", p.Devices)
	case p.Devices > ghe.MaxDevices:
		return fmt.Errorf("fl: device count %d exceeds %d", p.Devices, ghe.MaxDevices)
	}
	// The quantizer owns what a usable α and r are: a finite α > 0, r in
	// [2, 52], and r plus the parties' overflow bits inside a word.
	if _, err := quant.New(p.GradBound, p.RBits, p.Parties); err != nil {
		return err
	}
	if err := p.Round.Validate(p.Parties); err != nil {
		return err
	}
	if err := p.Byz.Validate(p.Parties); err != nil {
		return err
	}
	if err := p.Defense.Validate(); err != nil {
		return err
	}
	if err := p.Cohort.Validate(p.Parties); err != nil {
		return err
	}
	if err := p.Faults.Inject.Validate(); err != nil {
		return fmt.Errorf("fl: Faults.Inject: %w", err)
	}
	if err := p.Faults.Check.Validate(); err != nil {
		return fmt.Errorf("fl: Faults.Check: %w", err)
	}
	// A quorum above the sampled cohort size could never be met: every round
	// would fail at admission, so reject the combination up front.
	if p.Cohort.Size > 0 && p.Round.Quorum > p.Cohort.Size {
		return fmt.Errorf("fl: quorum %d exceeds cohort size %d", p.Round.Quorum, p.Cohort.Size)
	}
	if p.UseGPU() {
		if err := p.Device.Validate(); err != nil {
			return fmt.Errorf("fl: GPU profile: %w", err)
		}
	}
	return nil
}

// AllSystems lists the five configurations in reporting order.
func AllSystems() []System {
	return []System{SystemFATE, SystemHAFLO, SystemFLBooster, SystemNoGHE, SystemNoBC}
}
