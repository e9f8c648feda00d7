package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
)

// span is one traced interval on the host clock. Parent is the id of the
// span that caused it (0 for none); spans of one step share Step (-1 outside
// the timed steps).
type span struct {
	Name    string
	StartNs int64
	EndNs   int64
	Parent  int
	Step    int
}

// tracer keeps spans in memory until the workload ends. A nil tracer records
// nothing, so untraced runs pass nil and pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, step int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNs: int64(time.Since(t.epoch)), Parent: parent, Step: step})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// write emits the spans in Chrome trace-event format, the format of the
// repo's sim-time traces, so both load side by side in Perfetto. Top-level
// spans sit on thread 1 and each nesting level on the next one down.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	depth := make([]int, len(t.spans))
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		if s.Parent > 0 {
			depth[i] = depth[s.Parent-1] + 1
		}
		events[i] = event{
			Name: s.Name, Ph: "X",
			Ts: float64(s.StartNs) / 1e3, Dur: float64(s.EndNs-s.StartNs) / 1e3,
			Pid: 1, Tid: depth[i] + 1,
			Args: map[string]int{"id": i + 1, "parent": s.Parent, "step": s.Step},
		}
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// opCount is what crossed the fl→paillier boundary for one operation kind.
type opCount struct {
	calls, items int64
	wall         time.Duration
}

// tracedBackend wraps the context's paillier.Backend for the traced steps:
// one span and one count per call into the HE layer. It lives here, in the
// benchmark, so the program itself carries no tracing; untraced steps run on
// the bare backend.
type tracedBackend struct {
	paillier.Backend
	tr     *tracer
	parent int // the enclosing step's span
	step   int
	mu     sync.Mutex
	ops    map[string]*opCount
}

func (b *tracedBackend) call(kind string, items int, fn func() error) error {
	id := b.tr.begin("paillier."+kind, b.parent, b.step)
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	b.tr.end(id)
	b.mu.Lock()
	oc := b.ops[kind]
	if oc == nil {
		oc = &opCount{}
		b.ops[kind] = oc
	}
	oc.calls++
	oc.items += int64(items)
	oc.wall += wall
	b.mu.Unlock()
	return err
}

func (b *tracedBackend) EncryptVec(pk *paillier.PublicKey, ms []mpint.Nat, seed uint64) (out []paillier.Ciphertext, err error) {
	err = b.call("encrypt", len(ms), func() (err error) { out, err = b.Backend.EncryptVec(pk, ms, seed); return })
	return
}

func (b *tracedBackend) DecryptVec(sk *paillier.PrivateKey, cs []paillier.Ciphertext) (out []mpint.Nat, err error) {
	err = b.call("decrypt", len(cs), func() (err error) { out, err = b.Backend.DecryptVec(sk, cs); return })
	return
}

func (b *tracedBackend) AddVec(pk *paillier.PublicKey, x, y []paillier.Ciphertext) (out []paillier.Ciphertext, err error) {
	err = b.call("add", len(x), func() (err error) { out, err = b.Backend.AddVec(pk, x, y); return })
	return
}

func (b *tracedBackend) MulPlainVec(pk *paillier.PublicKey, cs []paillier.Ciphertext, ks []mpint.Nat) (out []paillier.Ciphertext, err error) {
	err = b.call("mulplain", len(cs), func() (err error) { out, err = b.Backend.MulPlainVec(pk, cs, ks); return })
	return
}
