// Package flbooster is a from-scratch Go reproduction of "FLBooster: A
// Unified and Efficient Platform for Federated Learning Acceleration"
// (Zeng et al., ICDE 2023).
//
// FLBooster attacks the two bottlenecks of HE-protected federated learning
// simultaneously: the computation cost of Paillier homomorphic encryption,
// lowered onto a (simulated) GPU as data-parallel kernels with a
// fine-grained resource manager, and the communication cost of ciphertext
// expansion, cut by a secure encoding-quantization scheme plus batch
// compression that packs ⌊k/(r+b)⌋ gradients into every k-bit plaintext.
//
// The top-level package re-exports the pieces a downstream user needs:
//
//	plat := flbooster.NewPlatform(seed)       // Table-I vector/HE APIs
//	prof := flbooster.NewProfile(flbooster.SystemFLBooster, 1024, 4)
//	ctx, _ := flbooster.NewContext(prof)       // accelerated HE context
//	fed := flbooster.NewFederation(ctx)        // Fig. 2 secure aggregation
//
// The four benchmark models (Homo LR, Hetero LR, Hetero SBT, Hetero NN)
// live in internal/models and are driven through the experiment harness
// (cmd/flbench) and the examples/ directory. See DESIGN.md for the system
// inventory and EXPERIMENTS.md for the paper-vs-measured record.
package flbooster

import (
	"flbooster/internal/core"
	"flbooster/internal/fl"
	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
)

// System re-exports the evaluated system identifiers.
type System = fl.System

// The acceleration configurations compared throughout the paper.
const (
	SystemFATE      = fl.SystemFATE
	SystemHAFLO     = fl.SystemHAFLO
	SystemFLBooster = fl.SystemFLBooster
	SystemNoGHE     = fl.SystemNoGHE
	SystemNoBC      = fl.SystemNoBC
)

// Profile re-exports the acceleration profile.
type Profile = fl.Profile

// Context re-exports the accelerated HE context.
type Context = fl.Context

// Federation re-exports the Fig. 2 secure-aggregation runner.
type Federation = fl.Federation

// RoundPolicy re-exports the fault-tolerance knobs (quorum, phase deadline,
// send retries) set on Profile.Round; the zero value is strict
// wait-for-all. See DESIGN.md §6.
type RoundPolicy = fl.RoundPolicy

// RoundReport re-exports the per-round resilience accounting returned by
// Federation.SecureAggregateReport.
type RoundReport = fl.RoundReport

// RoundError re-exports the typed round failure naming phase and party.
type RoundError = fl.RoundError

// RoundPhase re-exports the protocol phase labels used in reports and
// errors.
type RoundPhase = fl.RoundPhase

// The Fig. 2 protocol phases a RoundReport or RoundError can name.
const (
	PhaseUpload    = fl.PhaseUpload
	PhaseGather    = fl.PhaseGather
	PhaseBroadcast = fl.PhaseBroadcast
	PhaseDecrypt   = fl.PhaseDecrypt
)

// FaultPolicy re-exports the GPU-HE resilience knobs set on Profile.Faults:
// device fault injection plus the checked-execution policy (the retry budget
// that, once a shard spends it, retires the device; verification; CPU
// fallback). The zero value injects nothing. What the faults
// did is recorded once, where it happened: each member device's Stats
// (Context.Checked.Devices) holds its health, its faults by kind and the
// modelled time they cost, and Context.Checked.Stats the executor's
// host-served shards, retries and spot checks. See DESIGN.md §7.
type FaultPolicy = fl.FaultPolicy

// FaultConfig re-exports the seeded device fault injector's configuration
// (FaultPolicy.Inject).
type FaultConfig = gpu.FaultConfig

// CheckedConfig re-exports the checked-execution policy
// (FaultPolicy.Check): retry budget and verification sampling.
type CheckedConfig = ghe.CheckedConfig

// Platform re-exports the Table-I API surface.
type Platform = core.Platform

// NewProfile returns the standard configuration of a system at the given
// key size and party count.
func NewProfile(sys System, keyBits, parties int) Profile {
	return fl.NewProfile(sys, keyBits, parties)
}

// NewContext instantiates a profile: key pair, HE backend, quantizer,
// packer, and device.
func NewContext(p Profile) (*Context, error) { return fl.NewContext(p) }

// NewFederation wires a context to an in-process transport for
// secure-aggregation rounds.
func NewFederation(ctx *Context) *Federation { return fl.NewFederation(ctx) }

// NewPlatform creates a Table-I API platform on the modelled RTX 3090.
func NewPlatform(seed uint64) *Platform { return core.Default(seed) }
