package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestNilRecorderAndRegistryAreSafe(t *testing.T) {
	var rec *Recorder
	rec.Record(Span{Phase: "p", Party: "a", Lane: "l", Dur: time.Second})
	if rec.Len() != 0 || rec.Spans() != nil {
		t.Fatal("nil recorder should hold nothing")
	}
	if err := rec.WriteTrace(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil recorder WriteTrace: %v", err)
	}

	var reg *Registry
	reg.Add("c", 1)
	reg.Set("c", 2)
	reg.SetGauge("g", 3)
	if reg.Counter("c") != 0 {
		t.Fatal("nil registry should read zero")
	}
	if err := reg.WriteText(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil registry WriteText: %v", err)
	}

	var o *Obs
	if o.Recorder() != nil || o.Metrics() != nil {
		t.Fatal("nil bundle should expose nil components")
	}
}

func TestRecorderClampsNegativeTimes(t *testing.T) {
	rec := NewRecorder(1)
	rec.Record(Span{Phase: "p", Party: "a", Lane: "l", Start: -time.Second, Dur: -time.Millisecond})
	spans := rec.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	if spans[0].Start != 0 || spans[0].Dur != 0 {
		t.Fatalf("negative times not clamped: %+v", spans[0])
	}
}

func TestSpansSortedCanonically(t *testing.T) {
	// Record in scrambled order; Spans must sort by start, party, lane,
	// phase, dur regardless.
	in := []Span{
		{Phase: "z", Party: "b", Lane: "l1", Start: 2, Dur: 1},
		{Phase: "a", Party: "a", Lane: "l2", Start: 1, Dur: 1},
		{Phase: "a", Party: "a", Lane: "l1", Start: 1, Dur: 2},
		{Phase: "a", Party: "a", Lane: "l1", Start: 1, Dur: 1},
	}
	rec := NewRecorder(0)
	for _, s := range in {
		rec.Record(s)
	}
	got := rec.Spans()
	want := []Span{in[3], in[2], in[1], in[0]}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("span %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestWriteTraceIsValidJSONAndOrderIndependent(t *testing.T) {
	spans := []Span{
		{Phase: "enc", Party: "client0", Lane: "fl.encrypt", Start: 10 * time.Microsecond, Dur: 5 * time.Microsecond},
		{Phase: "send", Party: "client0", Lane: "fl.send", Start: 15 * time.Microsecond, Dur: 3 * time.Microsecond},
		{Phase: "mul", Party: "gpu", Lane: "gpu.kernel", Start: 0, Dur: 7 * time.Microsecond},
	}
	a, b := NewRecorder(42), NewRecorder(42)
	for _, s := range spans {
		a.Record(s)
	}
	for i := len(spans) - 1; i >= 0; i-- { // reversed arrival order
		b.Record(spans[i])
	}
	var bufA, bufB bytes.Buffer
	if err := a.WriteTrace(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteTrace(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatalf("trace bytes depend on recording order:\n%s\nvs\n%s", bufA.Bytes(), bufB.Bytes())
	}

	var doc struct {
		DisplayTimeUnit string                   `json:"displayTimeUnit"`
		TraceEvents     []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(bufA.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, bufA.Bytes())
	}
	var meta, complete int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			complete++
		}
	}
	if complete != len(spans) {
		t.Fatalf("%d complete events, want %d", complete, len(spans))
	}
	if meta == 0 {
		t.Fatal("no process/thread metadata events")
	}
}

func TestRegistryCountersAndGauges(t *testing.T) {
	reg := NewRegistry()
	reg.Add("x", 2)
	reg.Add("x", 3)
	reg.Set("y", 7)
	reg.SetGauge("g", 0.5)
	if reg.Counter("x") != 5 || reg.Counter("y") != 7 {
		t.Fatalf("counters x=%d y=%d", reg.Counter("x"), reg.Counter("y"))
	}
	// SetMax is a high-water mark: it raises, never lowers.
	reg.SetMax("w", 4)
	reg.SetMax("w", 2)
	if reg.Counter("w") != 4 {
		t.Fatalf("SetMax lowered the mark: w=%d", reg.Counter("w"))
	}
	reg.SetMax("w", 9)
	if reg.Counter("w") != 9 {
		t.Fatalf("SetMax did not raise the mark: w=%d", reg.Counter("w"))
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := "counter w 9\ncounter x 5\ncounter y 7\ngauge g 0.5\n"
	if buf.String() != want {
		t.Fatalf("WriteText = %q, want %q", buf.String(), want)
	}
}
