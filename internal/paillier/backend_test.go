package paillier

import (
	"testing"

	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
)

// TestNewGPUBackendRejectsNilEngines: a nil executor must be rejected at
// construction, not panic on first use.
func TestNewGPUBackendRejectsNilEngines(t *testing.T) {
	if _, err := NewGPUBackend(nil); err == nil {
		t.Fatal("nil engine must be rejected")
	}
	if b, err := NewGPUBackend(executor(t, gpu.SmallTestDevice(), 1, ghe.CheckedConfig{})); err != nil || b == nil {
		t.Fatalf("valid engine rejected: %v", err)
	}
}
