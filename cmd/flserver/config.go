package main

import (
	"fmt"

	"flbooster/internal/gpu"
)

// ConfigError reports a flag combination the protocol cannot run: the named
// flag's value is inconsistent with the rest of the configuration. It is
// returned before any key setup or dialing, so a misconfigured deployment
// fails at startup instead of stalling mid-round waiting for uploads that can
// never satisfy it.
type ConfigError struct {
	Flag   string // flag name without the leading dash, e.g. "quorum"
	Reason string
}

func (e *ConfigError) Error() string { return fmt.Sprintf("invalid -%s: %s", e.Flag, e.Reason) }

// badFlag builds a ConfigError with a formatted reason.
func badFlag(flag, format string, args ...interface{}) *ConfigError {
	return &ConfigError{Flag: flag, Reason: fmt.Sprintf(format, args...)}
}

// flagConfig is the cross-flag view validated at startup; run fills it from
// the parsed flag set before any command dispatches.
type flagConfig struct {
	cmd     string
	clients int
	id      int
	dim     int
	cohort  int
	fanout  int
	quorum  int
	groups  int
	devices int
	bits    int
}

// validate rejects out-of-range values and inconsistent flag combinations —
// a quorum above the sampled cohort, more defense groups than sampled
// uploads, a fan-out no tree can have, a key size fl.NewContext would
// refuse — with a typed ConfigError naming the offending flag.
func (c flagConfig) validate() error {
	if c.clients < 1 {
		return badFlag("clients", "need at least 1 client, have %d", c.clients)
	}
	if c.cmd == "client" && (c.id < 0 || c.id >= c.clients) {
		return badFlag("id", "client id %d outside [0, %d)", c.id, c.clients)
	}
	if c.cmd == "demo" && c.dim < 1 {
		return badFlag("dim", "gradient dimension must be at least 1, have %d", c.dim)
	}
	if c.cohort < 0 {
		return badFlag("cohort", "cohort size cannot be negative, have %d", c.cohort)
	}
	if c.cohort > c.clients {
		return badFlag("cohort", "cohort of %d exceeds the %d registered clients", c.cohort, c.clients)
	}
	if c.fanout < 0 || c.fanout == 1 {
		return badFlag("fanout", "aggregation fan-out must be at least 2 (or 0 for flat), have %d", c.fanout)
	}
	if c.devices < 0 {
		return badFlag("devices", "device count cannot be negative, have %d", c.devices)
	}
	if c.devices > gpu.MaxDevices {
		return badFlag("devices", "device count %d exceeds the %d-device set limit", c.devices, gpu.MaxDevices)
	}
	if c.bits < 32 || c.bits%2 != 0 { // what fl.Profile.Validate enforces
		return badFlag("bits", "key size must be an even number of bits, at least 32, have %d", c.bits)
	}
	// Quorum and groups are judged against the uploads a round can actually
	// gather: the sampled cohort when -cohort is set, everyone otherwise.
	sampled := c.clients
	if c.cohort > 0 {
		sampled = c.cohort
	}
	if c.quorum < 0 {
		return badFlag("quorum", "quorum cannot be negative, have %d", c.quorum)
	}
	if c.quorum > sampled {
		return badFlag("quorum", "quorum %d exceeds the sampled cohort of %d uploads", c.quorum, sampled)
	}
	if c.groups > sampled {
		return badFlag("groups", "%d groups exceed the sampled cohort of %d uploads", c.groups, sampled)
	}
	return nil
}
