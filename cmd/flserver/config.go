package main

import (
	"fmt"
	"slices"

	"flbooster/internal/fl"
	"flbooster/internal/ghe"
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

// failpoints are the -failpoint values: every kind the journal writes, each
// firing on the record of that kind.
var failpoints = []fl.EventKind{fl.EventRoundStart, fl.EventAggregated, fl.EventRoundDone, fl.EventRoundFailed, fl.EventDrained}

// validate rejects out-of-range values and inconsistent flag combinations —
// a quorum above the sampled cohort, a fan-out no tree can have, a key size
// fl.NewContext would refuse, a failpoint or resume with no journal to act
// on, a failpoint that names no journal record — with a typed ConfigError
// naming the offending flag. run calls it before any command dispatches.
func (c opts) validate(cmd string) error {
	if c.clients < 1 {
		return badFlag("clients", "need at least 1 client, have %d", c.clients)
	}
	if cmd == "client" && (c.id < 0 || c.id >= c.clients) {
		return badFlag("id", "client id %d outside [0, %d)", c.id, c.clients)
	}
	if cmd == "demo" && c.dim < 1 {
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
	if c.devices < 0 || c.devices > ghe.MaxDevices {
		return badFlag("devices", "device count must be in [0, %d], the executor's limit, have %d", ghe.MaxDevices, c.devices)
	}
	if err := fl.NewProfile(fl.SystemFLBooster, c.keyBits, c.clients).CheckKeyBits(); err != nil {
		return badFlag("bits", "%v", err)
	}
	if c.failpoint != "" && (!slices.Contains(failpoints, fl.EventKind(c.failpoint)) || c.journal == "") {
		return badFlag("failpoint", "want a journal record (round-start, aggregated, round-done, round-failed, drained) and a -journal to write it to, have %q and -journal %q", c.failpoint, c.journal)
	}
	if c.resume && c.journal == "" {
		return badFlag("resume", "resuming replays the -journal, and none is set")
	}
	// Quorum is judged against the uploads a round can actually gather: the
	// sampled cohort when -cohort is set, everyone otherwise.
	sampled := c.clients
	if c.cohort > 0 {
		sampled = c.cohort
	}
	if c.quorum < 0 || c.quorum > sampled {
		return badFlag("quorum", "quorum must be in [0, %d], the sampled cohort, have %d", sampled, c.quorum)
	}
	return nil
}
