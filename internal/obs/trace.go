package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one interval on the simulated clock: a kernel launch, a PCIe copy,
// a fault charge, a round phase. Party maps to a trace process, Lane to a
// thread within it, so Perfetto renders each party's lanes stacked under one
// heading.
type Span struct {
	// Phase names what ran (kernel name, "h2d_copy", "round3.upload").
	Phase string
	// Party is the owning actor: a client or server name, a device label.
	Party string
	// Lane is the execution lane within the party: "gpu.kernel", "gpu.h2d",
	// "gpu.fault", "fl.round", "fl.tree", ...
	Lane string
	// Device identifies which member of a device set emitted the span
	// ("dev0"…). Empty for a standalone device's spans and non-device spans.
	Device string
	// Start and Dur locate the span on the simulated clock. Wall time never
	// appears here — that is what keeps same-seed traces byte-identical.
	Start time.Duration
	Dur   time.Duration
}

// Recorder accumulates spans. It is safe for concurrent use; a nil
// *Recorder is a valid disabled recorder whose methods do nothing.
type Recorder struct {
	mu    sync.Mutex
	seed  uint64
	spans []Span
}

// NewRecorder creates a recorder stamped with the run's seed.
func NewRecorder(seed uint64) *Recorder { return &Recorder{seed: seed} }

// Seed returns the stamped run seed (0 for a nil recorder).
func (r *Recorder) Seed() uint64 {
	if r == nil {
		return 0
	}
	return r.seed
}

// Record appends one span. Negative durations are clamped to zero so a
// misbehaving producer cannot emit intervals that run backwards.
func (r *Recorder) Record(s Span) {
	if r == nil {
		return
	}
	if s.Dur < 0 {
		s.Dur = 0
	}
	if s.Start < 0 {
		s.Start = 0
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Len returns the number of recorded spans (0 for a nil recorder).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Spans returns a copy of the recorded spans in canonical order: sorted by
// (Start, Party, Lane, Phase, Dur). Producers on different goroutines may
// append in any interleaving; the canonical order is what makes same-seed
// exports byte-identical.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Party != b.Party {
			return a.Party < b.Party
		}
		if a.Lane != b.Lane {
			return a.Lane < b.Lane
		}
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		return a.Dur < b.Dur
	})
	return out
}

// usec formats a sim duration as Chrome trace microseconds with nanosecond
// precision, deterministically (no float formatting).
func usec(d time.Duration) string {
	ns := int64(d)
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

// jstr marshals a string as a JSON literal.
func jstr(s string) string {
	b, err := json.Marshal(s)
	if err != nil { // cannot happen for a string
		return `""`
	}
	return string(b)
}

// WriteTrace exports the recorded spans as Chrome trace-event JSON
// (loadable in Perfetto or chrome://tracing): one complete ("X") event per
// span, with process/thread metadata naming parties and lanes. The output
// is a pure function of the canonical span set, so two same-seed runs
// export identical bytes.
func (r *Recorder) WriteTrace(w io.Writer) error {
	spans := r.Spans()

	// Assign pids to parties and tids to lanes in sorted order.
	partySet := map[string]bool{}
	laneSet := map[string]map[string]bool{}
	for _, s := range spans {
		partySet[s.Party] = true
		if laneSet[s.Party] == nil {
			laneSet[s.Party] = map[string]bool{}
		}
		laneSet[s.Party][s.Lane] = true
	}
	parties := make([]string, 0, len(partySet))
	for p := range partySet {
		parties = append(parties, p)
	}
	sort.Strings(parties)
	pid := make(map[string]int, len(parties))
	tid := make(map[string]map[string]int, len(parties))
	for i, p := range parties {
		pid[p] = i + 1
		lanes := make([]string, 0, len(laneSet[p]))
		for l := range laneSet[p] {
			lanes = append(lanes, l)
		}
		sort.Strings(lanes)
		tid[p] = make(map[string]int, len(lanes))
		for j, l := range lanes {
			tid[p][l] = j + 1
		}
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"seed\":\"%d\",\"spans\":\"%d\"},\"traceEvents\":[", r.Seed(), len(spans))
	first := true
	emit := func(format string, args ...any) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, format, args...)
	}
	for _, p := range parties {
		emit(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`, pid[p], jstr(p))
		lanes := make([]string, 0, len(tid[p]))
		for l := range tid[p] {
			lanes = append(lanes, l)
		}
		sort.Strings(lanes)
		for _, l := range lanes {
			emit(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`, pid[p], tid[p][l], jstr(l))
		}
	}
	for _, s := range spans {
		if s.Device != "" {
			emit(`{"name":%s,"cat":"sim","ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"args":{"device_id":%s}}`,
				jstr(s.Phase), pid[s.Party], tid[s.Party][s.Lane], usec(s.Start), usec(s.Dur), jstr(s.Device))
			continue
		}
		emit(`{"name":%s,"cat":"sim","ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s}`,
			jstr(s.Phase), pid[s.Party], tid[s.Party][s.Lane], usec(s.Start), usec(s.Dur))
	}
	b.WriteString("]}\n")
	_, err := w.Write(b.Bytes())
	return err
}
