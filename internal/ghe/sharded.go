package ghe

import (
	"fmt"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
	"flbooster/internal/obs"
)

// ShardedEngine runs every vector HE op across a gpu.DeviceSet: the op
// splits into contiguous shards, each shard executes on its member device
// under the per-device checked discipline (retry + spot-verification, no
// host fallback — the scheduler owns failover), and shard results land in
// their exact positions of one output vector. Bit-exactness with a
// sequential engine holds by construction: every element is computed by the
// same kernel arithmetic at the same index, and nonce streams stay keyed by
// global item position, so no schedule — including mid-batch device death
// and work stealing — can change a single output bit.
type ShardedEngine struct {
	set  *gpu.DeviceSet
	subs []*CheckedEngine
	host *CPUEngine
}

// The sharded substrate is a drop-in engine.
var _ VectorEngine = (*ShardedEngine)(nil)

// NewShardedEngine wraps a device set. Each member device gets its own
// CheckedEngine with the given policy, forced into NoHostFallback mode so a
// shard the device cannot serve surfaces its typed fault to the scheduler
// (which re-queues it) instead of silently degrading that device to host
// execution.
func NewShardedEngine(set *gpu.DeviceSet, cfg CheckedConfig) (*ShardedEngine, error) {
	if set == nil {
		return nil, fmt.Errorf("ghe: NewShardedEngine needs a device set")
	}
	cfg.NoHostFallback = true
	subs := make([]*CheckedEngine, set.Size())
	for i := range subs {
		eng, err := NewEngine(set.Device(i))
		if err != nil {
			return nil, err
		}
		sub, err := NewCheckedEngine(eng, cfg)
		if err != nil {
			return nil, err
		}
		subs[i] = sub
	}
	return &ShardedEngine{set: set, subs: subs, host: NewCPUEngine()}, nil
}

// Set exposes the underlying device set.
func (s *ShardedEngine) Set() *gpu.DeviceSet { return s.set }

// Sub exposes member device i's checked engine (tests and fault reports).
func (s *ShardedEngine) Sub(i int) *CheckedEngine { return s.subs[i] }

// Stats aggregates the checked-layer counters across the member engines.
func (s *ShardedEngine) Stats() CheckedStats {
	var agg CheckedStats
	for _, sub := range s.subs {
		st := sub.Stats()
		agg.Ops += st.Ops
		agg.LaunchFaults += st.LaunchFaults
		agg.Retries += st.Retries
		agg.VerifySamples += st.VerifySamples
		agg.VerifyFailures += st.VerifyFailures
		agg.FallbackOps += st.FallbackOps
		agg.FallbackWall += st.FallbackWall
		agg.BackoffSim += st.BackoffSim
		agg.FellBack = agg.FellBack || st.FellBack
	}
	return agg
}

// PublishMetrics publishes the aggregate checked-layer counters under
// prefix, plus per-device rows under prefix+".dev<i>".
func (s *ShardedEngine) PublishMetrics(reg *obs.Registry, prefix string) {
	agg := s.Stats()
	reg.Set(prefix+".ops", agg.Ops)
	reg.Set(prefix+".launch_faults", agg.LaunchFaults)
	reg.Set(prefix+".retries", agg.Retries)
	reg.Set(prefix+".verify_samples", agg.VerifySamples)
	reg.Set(prefix+".verify_failures", agg.VerifyFailures)
	reg.Set(prefix+".fallback_ops", agg.FallbackOps)
	reg.Set(prefix+".fallback_wall_ns", int64(agg.FallbackWall))
	reg.Set(prefix+".backoff_sim_ns", int64(agg.BackoffSim))
	fell := 0.0
	if agg.FellBack {
		fell = 1
	}
	reg.SetGauge(prefix+".fell_back", fell)
	for i, sub := range s.subs {
		sub.PublishMetrics(reg, fmt.Sprintf("%s.dev%d", prefix, i))
	}
}

// run shards one n-element vector op across the set. devOp serves a shard
// on one member's checked engine; hostOp is the all-devices-dead fallback.
// Both return exactly sh.Len() elements, copied into the shard's slots.
func (s *ShardedEngine) run(name string, n int, bytesPerItem int64,
	devOp func(sub *CheckedEngine, sh gpu.Shard) ([]mpint.Nat, error),
	hostOp func(sh gpu.Shard) ([]mpint.Nat, error)) ([]mpint.Nat, error) {
	out := make([]mpint.Nat, n)
	place := func(sh gpu.Shard, res []mpint.Nat) error {
		if len(res) != sh.Len() {
			return fmt.Errorf("ghe: sharded %s returned %d elements for %d-item shard", name, len(res), sh.Len())
		}
		copy(out[sh.Lo:sh.Hi], res)
		return nil
	}
	err := s.set.Run(gpu.ShardOp{
		Name:         name,
		Items:        n,
		BytesPerItem: bytesPerItem,
		Run: func(dev int, sh gpu.Shard) error {
			res, err := devOp(s.subs[dev], sh)
			if err != nil {
				return err
			}
			return place(sh, res)
		},
		Host: func(sh gpu.Shard) error {
			res, err := hostOp(sh)
			if err != nil {
				return err
			}
			return place(sh, res)
		},
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ModExpVec implements VectorEngine.
func (s *ShardedEngine) ModExpVec(bases []mpint.Nat, exp mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	return s.run("mod_exp_vec", len(bases), int64(m.Limbs())*4,
		func(sub *CheckedEngine, sh gpu.Shard) ([]mpint.Nat, error) {
			return sub.ModExpVec(bases[sh.Lo:sh.Hi], exp, m)
		},
		func(sh gpu.Shard) ([]mpint.Nat, error) {
			return s.host.ModExpVec(bases[sh.Lo:sh.Hi], exp, m)
		})
}

// PowNVec implements VectorEngine.
func (s *ShardedEngine) PowNVec(xs []mpint.Nat, crt *mpint.CRT, m *mpint.Mont) ([]mpint.Nat, error) {
	return s.run("pow_n_crt_vec", len(xs), int64((crt.N().BitLen()+31)/32)*4,
		func(sub *CheckedEngine, sh gpu.Shard) ([]mpint.Nat, error) {
			return sub.PowNVec(xs[sh.Lo:sh.Hi], crt, m)
		},
		func(sh gpu.Shard) ([]mpint.Nat, error) {
			return s.host.PowNVec(xs[sh.Lo:sh.Hi], crt, m)
		})
}

// ModExpVarVec implements VectorEngine.
func (s *ShardedEngine) ModExpVarVec(bases, exps []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	if len(bases) != len(exps) {
		return nil, fmt.Errorf("ghe: ModExpVarVec length mismatch %d vs %d", len(bases), len(exps))
	}
	return s.run("mod_exp_var_vec", len(bases), int64(m.Limbs())*8,
		func(sub *CheckedEngine, sh gpu.Shard) ([]mpint.Nat, error) {
			return sub.ModExpVarVec(bases[sh.Lo:sh.Hi], exps[sh.Lo:sh.Hi], m)
		},
		func(sh gpu.Shard) ([]mpint.Nat, error) {
			return s.host.ModExpVarVec(bases[sh.Lo:sh.Hi], exps[sh.Lo:sh.Hi], m)
		})
}

// FixedBaseExpVec implements VectorEngine. Each shard builds its member
// device's own comb table — the per-element results are canonical residues
// either way, so the shard boundary cannot change a bit.
func (s *ShardedEngine) FixedBaseExpVec(base mpint.Nat, exps []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	return s.run("fixed_base_exp_vec", len(exps), int64(m.Limbs())*4,
		func(sub *CheckedEngine, sh gpu.Shard) ([]mpint.Nat, error) {
			return sub.FixedBaseExpVec(base, exps[sh.Lo:sh.Hi], m)
		},
		func(sh gpu.Shard) ([]mpint.Nat, error) {
			return s.host.FixedBaseExpVec(base, exps[sh.Lo:sh.Hi], m)
		})
}

// ModMulVec implements VectorEngine.
func (s *ShardedEngine) ModMulVec(a, b []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("ghe: ModMulVec length mismatch %d vs %d", len(a), len(b))
	}
	return s.run("mod_mul_vec", len(a), int64(m.Limbs())*8,
		func(sub *CheckedEngine, sh gpu.Shard) ([]mpint.Nat, error) {
			return sub.ModMulVec(a[sh.Lo:sh.Hi], b[sh.Lo:sh.Hi], m)
		},
		func(sh gpu.Shard) ([]mpint.Nat, error) {
			return s.host.ModMulVec(a[sh.Lo:sh.Hi], b[sh.Lo:sh.Hi], m)
		})
}

// RandCoprimeVec implements VectorEngine. The stream stays keyed by global
// item index: shard [Lo, Hi) draws positions [Lo, Hi) of the (seed, m)
// stream no matter which device serves it, so nonces are bit-exact across
// every D and every fault schedule.
func (s *ShardedEngine) RandCoprimeVec(n int, m mpint.Nat, seed uint64) ([]mpint.Nat, error) {
	return s.RandCoprimeRange(0, n, m, seed)
}

// RandCoprimeRange draws a sub-range of the stream with the same
// global-position keying: shard [Lo, Hi) of a range at `base` covers stream
// positions [base+Lo, base+Hi).
func (s *ShardedEngine) RandCoprimeRange(base, n int, m mpint.Nat, seed uint64) ([]mpint.Nat, error) {
	if base < 0 {
		return nil, fmt.Errorf("ghe: RandCoprimeRange negative base %d", base)
	}
	return s.run("rand_coprime_vec", n, int64((m.BitLen()+31)/32)*4,
		func(sub *CheckedEngine, sh gpu.Shard) ([]mpint.Nat, error) {
			return sub.RandCoprimeRange(base+sh.Lo, sh.Len(), m, seed)
		},
		func(sh gpu.Shard) ([]mpint.Nat, error) {
			return s.host.RandCoprimeRange(base+sh.Lo, sh.Len(), m, seed)
		})
}
