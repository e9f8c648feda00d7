// Package obs is the observability layer: a seeded, sim-time span recorder
// whose export loads in Perfetto/chrome://tracing, and a metrics registry
// (counters and gauges) that the gpu, ghe, flnet, and fl layers publish
// into. Everything is nil-safe — a nil *Obs, *Recorder, or *Registry makes
// every method a no-op — so instrumented hot paths cost one pointer check
// when observability is disabled.
//
// Spans carry *simulated* time only (the device cost model, the link model,
// the round's phase clock), never host wall time, so two same-seed runs of a
// GPU-profile experiment produce byte-identical trace exports. Every counter
// in the registry has one writer: a layer that keeps its own statistics
// (the checked executor, transport meter, fl cost accumulator) is
// pulled into it with Set when its owner publishes, and the round's protocol
// counters, which nothing else keeps, are pushed as they happen (DESIGN.md §9).
package obs

// Obs bundles one run's span recorder and metrics registry.
type Obs struct {
	rec *Recorder
	reg *Registry
}

// New creates an observability bundle seeded for trace metadata.
func New(seed uint64) *Obs {
	return &Obs{rec: NewRecorder(seed), reg: NewRegistry()}
}

// Recorder returns the span recorder; nil when o is nil.
func (o *Obs) Recorder() *Recorder {
	if o == nil {
		return nil
	}
	return o.rec
}

// Metrics returns the metrics registry; nil when o is nil.
func (o *Obs) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}
