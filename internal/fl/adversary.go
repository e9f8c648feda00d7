package fl

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"flbooster/internal/mpint"
)

// The Byzantine-adversary injector: the client-harness counterpart of the
// network ChaosTransport and the device fault injector. A seeded cohort of
// clients is compromised at construction, and every compromised client's
// local gradient vector is rewritten by an attack model before it is
// quantized and encrypted — exactly where a malicious participant would
// poison a real deployment, underneath the secure-aggregation machinery
// that hides it from the server. All randomness (who is compromised, what
// each attack draws per round) derives from the config seed and the round
// ID, so every attack scenario replays bit-exactly — including across
// coordinator crash recovery, where the re-run round keeps its round ID.

// AttackKind names one Byzantine client behaviour.
type AttackKind string

// The attack models, from crude to coordinated.
const (
	// AttackNone: no attack; the zero AdversaryConfig is honest.
	AttackNone AttackKind = ""
	// AttackSignFlip: the client uploads −g instead of g, steering the
	// aggregate away from descent.
	AttackSignFlip AttackKind = "sign-flip"
	// AttackScale: the client boosts its update by Factor — the classic
	// model-replacement/boosting attack.
	AttackScale AttackKind = "scale"
	// AttackNoise: the client adds zero-mean Gaussian noise of standard
	// deviation NoiseStd to every coordinate.
	AttackNoise AttackKind = "noise"
	// AttackZero: the client uploads the zero vector (a free-rider /
	// constant-update attack that drags the aggregate toward zero).
	AttackZero AttackKind = "zero"
	// AttackCollude: every compromised client uploads the same target
	// vector, drawn per round from the shared adversary seed — a colluding
	// cohort pushing the aggregate toward a common poisoned direction.
	AttackCollude AttackKind = "collude"
)

// KnownAttacks lists the attack models in reporting order (AttackNone
// excluded).
func KnownAttacks() []AttackKind {
	return []AttackKind{AttackSignFlip, AttackScale, AttackNoise, AttackZero, AttackCollude}
}

func knownAttack(k AttackKind) bool {
	if k == AttackNone {
		return true
	}
	for _, a := range KnownAttacks() {
		if a == k {
			return true
		}
	}
	return false
}

// AdversaryConfig arms the Byzantine injector. The zero value injects
// nothing.
type AdversaryConfig struct {
	// Seed drives compromise selection and every per-round attack draw.
	Seed uint64
	// Kind selects the attack model; AttackNone disables the injector.
	Kind AttackKind
	// Fraction of clients compromised, rounded down with a floor of one
	// when positive. Count overrides it when set.
	Fraction float64
	// Count is the explicit number of compromised clients (0 = derive from
	// Fraction).
	Count int
	// Factor is the boosting multiplier for AttackScale (default 10).
	Factor float64
	// NoiseStd is the Gaussian standard deviation for AttackNoise
	// (default 1).
	NoiseStd float64
	// Drift bounds the per-coordinate magnitude of the colluders' shared
	// target for AttackCollude (default 1).
	Drift float64
}

// Enabled reports whether the config compromises anyone.
func (c AdversaryConfig) Enabled() bool {
	return c.Kind != AttackNone && (c.Count > 0 || c.Fraction > 0)
}

// ErrAdversaryConfig is what AdversaryConfig.Validate rejects a number out of
// range with.
var ErrAdversaryConfig = errors.New("fl: adversary setting out of range")

// Validate reports configuration errors for a federation of `parties`. A
// fraction, factor, noise or drift that is negative or not finite (a NaN
// fraction would silently disarm the attack) is an ErrAdversaryConfig.
func (c AdversaryConfig) Validate(parties int) error {
	switch {
	case !knownAttack(c.Kind):
		return fmt.Errorf("fl: unknown attack kind %q", c.Kind)
	case !(c.Fraction >= 0 && c.Fraction < 1): // NaN too
		return fmt.Errorf("%w: fraction %v outside [0, 1)", ErrAdversaryConfig, c.Fraction)
	case c.Count < 0:
		return fmt.Errorf("fl: negative adversary count %d", c.Count)
	case c.Count >= parties && c.Count > 0:
		return fmt.Errorf("fl: %d adversaries need at least %d parties", c.Count, c.Count+1)
	case !finiteNonNegative(c.Factor):
		return fmt.Errorf("%w: attack factor %v", ErrAdversaryConfig, c.Factor)
	case !finiteNonNegative(c.NoiseStd):
		return fmt.Errorf("%w: attack noise %v", ErrAdversaryConfig, c.NoiseStd)
	case !finiteNonNegative(c.Drift):
		return fmt.Errorf("%w: collusion drift %v", ErrAdversaryConfig, c.Drift)
	case c.Kind == AttackNone && (c.Count > 0 || c.Fraction > 0):
		return fmt.Errorf("fl: adversary cohort configured without an attack kind")
	}
	return nil
}

// finiteNonNegative reports whether x is a finite number of at least 0.
func finiteNonNegative(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// cohortSize resolves Count/Fraction for a party count. An armed config
// always compromises at least one client and never all of them.
func (c AdversaryConfig) cohortSize(parties int) int {
	if !c.Enabled() {
		return 0
	}
	n := c.Count
	if n == 0 {
		n = int(c.Fraction * float64(parties))
		if n == 0 {
			n = 1
		}
	}
	if n >= parties {
		n = parties - 1
	}
	return n
}

// AdversaryStats counts injector activity.
type AdversaryStats struct {
	// Compromised is the cohort size.
	Compromised int
	// Applications counts gradient vectors rewritten by an attack.
	Applications int64
	// ByKind breaks Applications down per attack model (the kind can be
	// rotated between rounds by harnesses).
	ByKind map[AttackKind]int64
}

// Adversary is the armed injector: a fixed seeded cohort plus the attack
// model applied at each upload. Safe for concurrent use.
type Adversary struct {
	seed      uint64
	parties   int
	malicious map[int]bool

	mu    sync.Mutex
	kind  AttackKind
	cfg   AdversaryConfig
	stats AdversaryStats
}

// NewAdversary arms an injector over `parties` clients. A disabled config
// returns a nil Adversary — nil is the honest injector and is safe to call.
func NewAdversary(cfg AdversaryConfig, parties int) (*Adversary, error) {
	if err := cfg.Validate(parties); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	if cfg.Factor == 0 {
		cfg.Factor = 10
	}
	if cfg.NoiseStd == 0 {
		cfg.NoiseStd = 1
	}
	if cfg.Drift == 0 {
		cfg.Drift = 1
	}
	n := cfg.cohortSize(parties)
	// Seeded partial Fisher–Yates over the client indices: the first n
	// positions of the shuffle are the compromised cohort.
	idx := make([]int, parties)
	for i := range idx {
		idx[i] = i
	}
	rng := mpint.NewRNG(cfg.Seed ^ 0xb12e)
	malicious := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		j := i + rng.Intn(parties-i)
		idx[i], idx[j] = idx[j], idx[i]
		malicious[idx[i]] = true
	}
	return &Adversary{
		seed:      cfg.Seed,
		parties:   parties,
		malicious: malicious,
		kind:      cfg.Kind,
		cfg:       cfg,
		stats: AdversaryStats{
			Compromised: n,
			ByKind:      make(map[AttackKind]int64),
		},
	}, nil
}

// IsMalicious reports whether client i is in the compromised cohort. A nil
// adversary compromises nobody.
func (a *Adversary) IsMalicious(i int) bool {
	return a != nil && a.malicious[i]
}

// Malicious returns the compromised client indices in ascending order.
func (a *Adversary) Malicious() []int {
	if a == nil {
		return nil
	}
	out := make([]int, 0, len(a.malicious))
	for i := 0; i < a.parties; i++ {
		if a.malicious[i] {
			out = append(out, i)
		}
	}
	return out
}

// Kind returns the current attack model.
func (a *Adversary) Kind() AttackKind {
	if a == nil {
		return AttackNone
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.kind
}

// SetKind switches the attack model between rounds — the hook adversarial
// schedules (the soak, the byz sweep) use to rotate attacks over one fixed
// cohort. Switching mid-round is a harness bug, not supported.
func (a *Adversary) SetKind(k AttackKind) error {
	if a == nil {
		return fmt.Errorf("fl: SetKind on a nil adversary")
	}
	if !knownAttack(k) || k == AttackNone {
		return fmt.Errorf("fl: unknown attack kind %q", k)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.kind = k
	return nil
}

// Stats returns a snapshot of the injector counters.
func (a *Adversary) Stats() AdversaryStats {
	if a == nil {
		return AdversaryStats{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := a.stats
	out.ByKind = make(map[AttackKind]int64, len(a.stats.ByKind))
	for k, v := range a.stats.ByKind {
		out.ByKind[k] = v
	}
	return out
}

// colludeStream is the pseudo-client index of the colluders' shared draw
// stream — outside any real client index.
const colludeStream = 1<<31 - 1

// attackRNG derives the deterministic stream for one (round, client) draw.
// Colluding draws pass colludeStream for the whole cohort so the target is
// shared.
func (a *Adversary) attackRNG(round uint64, client int) *mpint.RNG {
	return mpint.NewRNG(a.seed ^ round*0x9E3779B97F4A7C15 ^ uint64(client)*0xBF58476D1CE4E5B9 ^ 0xad7e)
}

// Apply rewrites client i's gradient vector for the given round when the
// client is compromised; honest clients (and a nil adversary) get the input
// back untouched. The returned slice is a fresh copy for compromised
// clients — the caller's honest gradients are never mutated, so oracles can
// re-derive both views.
func (a *Adversary) Apply(round uint64, client int, grads []float64) []float64 {
	if !a.IsMalicious(client) {
		return grads
	}
	a.mu.Lock()
	kind := a.kind
	cfg := a.cfg
	a.stats.Applications++
	a.stats.ByKind[kind]++
	a.mu.Unlock()

	out := make([]float64, len(grads))
	switch kind {
	case AttackSignFlip:
		for i, g := range grads {
			out[i] = -g
		}
	case AttackScale:
		for i, g := range grads {
			out[i] = cfg.Factor * g
		}
	case AttackNoise:
		rng := a.attackRNG(round, client)
		for i, g := range grads {
			out[i] = g + cfg.NoiseStd*rng.NormFloat64()
		}
	case AttackZero:
		// out is already the zero vector.
	case AttackCollude:
		// One shared stream for the whole cohort: every colluder uploads
		// the identical per-round target.
		rng := a.attackRNG(round, colludeStream)
		for i := range out {
			out[i] = cfg.Drift * (2*rng.Float64() - 1)
		}
	default:
		copy(out, grads)
	}
	return out
}
