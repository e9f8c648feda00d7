// Package models implements the paper's four benchmark federated learning
// models on top of the fl framework:
//
//   - Homo LR: horizontally partitioned logistic regression trained by
//     FedAvg with HE-protected gradient aggregation (Fig. 2).
//   - Hetero LR: vertically partitioned logistic regression with a guest
//     (labels + features), hosts (features only), and an arbiter holding the
//     Paillier key, following FATE's protocol shape: encrypted partial-score
//     aggregation, per-sample encrypted residuals, homomorphic gradient
//     accumulation on the hosts, arbiter decryption of the packed sums.
//   - Hetero SBT: SecureBoost gradient-boosted decision trees — guest
//     encrypts per-sample gradient/hessian pairs, hosts build encrypted
//     split histograms, guest decrypts and selects splits.
//   - Hetero NN: a two-tower neural network with an HE-protected interactive
//     layer merging guest and host activations.
//
// Every model trains identically under each acceleration profile; only the
// HE backend, compression, and resource management differ — which is what
// makes the paper's system comparison meaningful. Passing a nil fl.Context
// trains in the plaintext oracle mode used for the convergence-bias metric
// (Table VII, Eq. 15).
package models

import (
	"fmt"

	"flbooster/internal/datasets"
	"flbooster/internal/quant"
)

// Model is a trainable federated model.
type Model interface {
	// TrainEpoch runs one epoch over the federated data and returns the
	// global training loss after the epoch.
	TrainEpoch() (float64, error)
	// Loss computes the current global training loss without updating.
	Loss() float64
	// Close releases what the model holds: Homo LR's federation transport,
	// the transport a vertical model's parties exchange frames on. A
	// plaintext oracle's releases nothing.
	Close() error
}

// Options configures training shared by all models.
type Options struct {
	// LearningRate is Adam's base step size.
	LearningRate float64
	// L2 is the ridge penalty coefficient (paper default 0.01).
	L2 float64
	// BatchSize is the minibatch size (paper default 1024).
	BatchSize int
	// Seed drives initialization.
	Seed uint64
	// Parties sets the federation topology in plaintext-oracle mode (nil
	// context), so oracle and encrypted runs see identical partitions; with
	// a context the profile's party count always wins. Zero means 1.
	Parties int
}

// DefaultOptions mirrors the paper's parameter settings (§VI-B).
func DefaultOptions() Options {
	return Options{LearningRate: 0.1, L2: 0.01, BatchSize: 1024, Seed: 1}
}

func (o Options) validate() error {
	switch {
	case o.LearningRate <= 0:
		return fmt.Errorf("models: learning rate must be positive")
	case o.L2 < 0:
		return fmt.Errorf("models: L2 must be non-negative")
	case o.BatchSize < 1:
		return fmt.Errorf("models: batch size must be at least 1")
	}
	return nil
}

// oracleParties resolves the plaintext-oracle party count.
func oracleParties(o Options) int {
	if o.Parties > 0 {
		return o.Parties
	}
	return 1
}

// logisticLoss computes the mean log-loss of a linear model over a dataset.
func logisticLoss(w []float64, bias float64, ds *datasets.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	var loss float64
	for _, ex := range ds.Examples {
		z := ex.Features.Dot(w) + bias
		p := datasets.Sigmoid(z)
		loss += crossEntropy(p, ex.Label)
	}
	return loss / float64(ds.Len())
}

// crossEntropy is the per-example binary log-loss with probability clamping.
func crossEntropy(p, y float64) float64 {
	const eps = 1e-12
	if p < eps {
		p = eps
	}
	if p > 1-eps {
		p = 1 - eps
	}
	if y > 0.5 {
		return -datasets.Log(p)
	}
	return -datasets.Log(1 - p)
}

// clampGrad clips a gradient into the quantizer's interval [−α, α], in
// oracle and encrypted mode alike.
func clampGrad(g float64) float64 {
	return max(-quant.Alpha, min(g, quant.Alpha))
}

// ConvergenceBias is Eq. 15: |L − L_FLBooster| / L, the relative loss error
// the accelerated pipeline introduces versus the uncompressed baseline.
func ConvergenceBias(baseline, accelerated float64) float64 {
	if baseline == 0 {
		return 0
	}
	d := baseline - accelerated
	if d < 0 {
		d = -d
	}
	return d / baseline
}

// Accuracy computes classification accuracy of a linear scorer over data.
func Accuracy(w []float64, bias float64, ds *datasets.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	var correct int
	for _, ex := range ds.Examples {
		pred := 0.0
		if datasets.Sigmoid(ex.Features.Dot(w)+bias) >= 0.5 {
			pred = 1
		}
		if pred == ex.Label {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}
