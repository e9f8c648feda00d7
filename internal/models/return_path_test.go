package models

import (
	"bytes"
	"encoding/binary"
	"errors"
	"maps"
	"math"
	"testing"

	"flbooster/internal/datasets"
	"flbooster/internal/fl"
	"flbooster/internal/flnet"
	"flbooster/internal/gpu"
	"flbooster/internal/quant"
)

// returnKeyBits is a key wide enough for three return-path slots.
const returnKeyBits = 256

// TestHeteroLossIdenticalAcrossProfiles: compression and the HE substrate may
// change bytes and time, never the model. Every plaintext the vertical
// protocols open is an exact integer sum, so three epochs under the full
// system, without batch compression and on the serial CPU baseline must end
// at the same loss to the last bit — at 256 bits, and for Hetero LR and NN at
// 1,024 too, where the full system packs its broadcast several values a
// ciphertext.
func TestHeteroLossIdenticalAcrossProfiles(t *testing.T) {
	build := map[string]func(ctx *fl.Context, ds *datasets.Dataset) (Model, error){
		"Hetero LR":  func(ctx *fl.Context, ds *datasets.Dataset) (Model, error) { return NewHeteroLR(ctx, ds, testOpts()) },
		"Hetero NN":  func(ctx *fl.Context, ds *datasets.Dataset) (Model, error) { return NewHeteroNN(ctx, ds, 3, testOpts()) },
		"Hetero SBT": func(ctx *fl.Context, ds *datasets.Dataset) (Model, error) { return NewHeteroSBT(ctx, ds, testOpts()) },
	}
	for name, newModel := range build {
		keys := []int{returnKeyBits}
		if name != "Hetero SBT" {
			keys = append(keys, 1024)
		}
		for _, keyBits := range keys {
			ds := denseData(t, 64, 8)
			losses := map[fl.System]float64{}
			for _, sys := range []fl.System{fl.SystemFLBooster, fl.SystemNoBC, fl.SystemFATE} {
				ctx := testCtxKey(t, sys, keyBits)
				m, err := newModel(ctx, ds)
				if err != nil {
					t.Fatal(err)
				}
				if s := ctx.BroadcastStride(32, []int{4, 4, 4}); keyBits == 1024 && sys == fl.SystemFLBooster && s != 5 {
					t.Fatalf("%s at 1,024 bits broadcasts %d residuals a ciphertext, want 5", sys, s)
				}
				for e := 0; e < 3; e++ {
					if losses[sys], err = m.TrainEpoch(); err != nil {
						t.Fatalf("%s on %s at %d bits, epoch %d: %v", name, sys, keyBits, e, err)
					}
				}
				m.(interface{ Close() error }).Close()
			}
			if a, b, c := losses[fl.SystemFLBooster], losses[fl.SystemNoBC], losses[fl.SystemFATE]; a != b || a != c {
				t.Errorf("%s loss after three epochs at %d bits: FLBooster %v, w/o BC %v, FATE %v", name, keyBits, a, b, c)
			}
		}
	}
}

// TestHeteroLRWireBudget pins Hetero LR's traffic per epoch from the protocol
// description, not from a recorded number: per minibatch of n rows, with s
// the stride the rule picks from (n, dim per host, the key), P−1 score
// uploads of PlaintextCount(n) ciphertexts from the hosts to the arbiter, 8n
// bytes of the hosts' raw score sums from the arbiter to the guest, P−1
// residual broadcasts of ⌈n/s⌉ ciphertexts, and per host one return-path
// request of ⌈dim/per⌉ ciphertexts, one signed sum a feature — per the 64-bit
// slots that fit at s = 1, the blocks of 2s−1 W-bit slots above — behind its
// header (stride and value count, a minimal uvarint each), answered by 8
// bytes a sum. Every ciphertext batch is priced at CiphertextWireBytes, less
// what a batch narrower than n² saves, which the frames' log adds up
// (trimmed).
// The guest encrypts no score and sends no gradient: its only frames are the
// broadcast (checkRoute). If the broadcast or the return path stops packing,
// or the scores or the guest's gradient go back through the guest or the
// arbiter, the byte or message count moves.
func TestHeteroLRWireBudget(t *testing.T) {
	for _, keyBits := range []int{returnKeyBits, 1024} {
		wireBudget(t, keyBits)
	}
}

// frameLog records every frame a vertical model's parties exchange, with a
// copy of its payload: the receiver hands the frame back to be framed into
// again.
type frameLog struct {
	flnet.Transport
	sent []flnet.Message
}

func (w *frameLog) Send(msg flnet.Message) error {
	kept := msg
	kept.Payload = bytes.Clone(msg.Payload)
	w.sent = append(w.sent, kept)
	return w.Transport.Send(msg)
}

// verticalOf is the skeleton of a vertical model.
func verticalOf(t *testing.T, m Model) *vertical {
	t.Helper()
	switch m := m.(type) {
	case *HeteroLR:
		return &m.vertical
	case *HeteroNN:
		return &m.vertical
	case *HeteroSBT:
		return &m.vertical
	}
	t.Fatalf("%T is not a vertical model", m)
	return nil
}

// logFrames puts a frameLog between the parties of a vertical model.
func logFrames(t *testing.T, m Model) *frameLog {
	t.Helper()
	v := verticalOf(t, m)
	log := &frameLog{Transport: v.net}
	v.net = log
	return log
}

// newSecureSumModel builds Hetero LR or Hetero NN on the golden shape.
func newSecureSumModel(t *testing.T, model string, ctx *fl.Context) Model {
	t.Helper()
	var (
		m   Model
		err error
	)
	if model == "Hetero LR" {
		m, err = NewHeteroLR(ctx, denseData(t, 64, 8), testOpts())
	} else {
		m, err = NewHeteroNN(ctx, denseData(t, 64, 8), 3, testOpts())
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.(interface{ Close() error }).Close() })
	return m
}

// wordRewriter overwrites the first value of every frame of one kind it
// carries: a key holder that lies in its reply.
type wordRewriter struct {
	flnet.Transport
	kind string
	word uint64
}

func (w *wordRewriter) Send(msg flnet.Message) error {
	if msg.Kind == w.kind {
		binary.LittleEndian.PutUint64(msg.Payload, w.word)
	}
	return w.Transport.Send(msg)
}

// secureSumCtx is testCtxKey's context at the return-path key for any
// number of parties.
func secureSumCtx(t *testing.T, sys fl.System, parties int) *fl.Context {
	t.Helper()
	p := fl.NewProfile(sys, returnKeyBits, parties)
	p.Device = gpu.SmallTestDevice()
	p.RBits = 14
	ctx, err := fl.NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// TestGuestRejectsHostileScoreReply: the guest holds each raw slot sum the
// arbiter returns to the most the parties it folded can sum, k·(2^r−1): the
// P−1 hosts at P = 4, to which the guest adds its own quantized share, and
// the guest and its lone host at P = 2. A word above it — 2^64−1 would wrap
// the uint64 add into a plausible total — stops Hetero LR's and Hetero NN's
// epoch with quant.ErrOverflow and no loss; the bound itself trains.
func TestGuestRejectsHostileScoreReply(t *testing.T) {
	for _, model := range []string{"Hetero LR", "Hetero NN"} {
		for parties, folded := range map[int]uint64{4: 3, 2: 2} {
			most := folded * (1<<14 - 1) // r = 14 (secureSumCtx)
			for _, word := range []uint64{math.MaxUint64, most + 1, most} {
				ctx := secureSumCtx(t, fl.SystemFLBooster, parties)
				if got := folded * ctx.Quant.MaxQ(); got != most {
					t.Fatalf("%d parties fold to at most %d, want %d", parties, got, most)
				}
				m := newSecureSumModel(t, model, ctx)
				v := verticalOf(t, m)
				v.net = &wordRewriter{Transport: v.net, kind: routeKinds[model][1], word: word}
				loss, err := m.TrainEpoch()
				if word > most {
					if !errors.Is(err, quant.ErrOverflow) || loss != 0 {
						t.Errorf("%s, %d parties, a reply word of %d: loss %v, error %v, want quant.ErrOverflow", model, parties, word, loss, err)
					}
				} else if err != nil || math.IsNaN(loss) {
					t.Errorf("%s, %d parties, a reply word at the bound %d: loss %v, error %v", model, parties, word, loss, err)
				}
			}
		}
	}
}

// TestLoneHostSumHoldsTheGuestShare: with one host the hosts' sum is that
// host's vector, so the guest's batch goes to the arbiter too and the
// arbiter opens both parties' sum, as it did when the guest folded the
// host's batch into its own and forwarded the fold. Every minibatch the
// guest and the host each send the arbiter one batch (two epochs of two
// minibatches), the epochs send the 24 messages they sent then, and the loss
// bits are the ones recorded then.
func TestLoneHostSumHoldsTheGuestShare(t *testing.T) {
	want := map[string][2]uint64{
		"Hetero LR": {0x3fe1c9b70e82c69b, 0x3fde3ed9d945af1c},
		"Hetero NN": {0x3fe548a6e53a829f, 0x3fe3e42cc3e4ffb8},
	}
	for model, bits := range want {
		for _, sys := range []fl.System{fl.SystemFLBooster, fl.SystemHAFLO} {
			ctx := secureSumCtx(t, sys, 2)
			m := newSecureSumModel(t, model, ctx)
			log := logFrames(t, m)
			var got [2]uint64
			for e := range got {
				loss, err := m.TrainEpoch()
				if err != nil {
					t.Fatalf("%s on %s, epoch %d: %v", model, sys, e, err)
				}
				got[e] = math.Float64bits(loss)
			}
			batches := map[string]int{} // a sender's batches to the arbiter
			for _, msg := range log.sent {
				if msg.Kind == routeKinds[model][0] && msg.To == arbiterName {
					batches[msg.From]++
				}
			}
			want := map[string]int{hostName(0): 4, hostName(1): 4}
			if c := ctx.Costs.Snapshot(); got != bits || c.CommMsgs != 24 || !maps.Equal(batches, want) {
				t.Errorf("%s on %s with one host: loss bits %#x, %d messages, batches to the arbiter %v; want %#x, 24, %v",
					model, sys, got, c.CommMsgs, batches, bits, want)
			}
		}
	}
}

// TestSinglePartySecureSumIsLocal: with no host the guest's scores
// (activations) are its own sum, so nothing crosses the wire, and it still
// quantizes and dequantizes them: the loss bits are the ones recorded when it
// had the arbiter decrypt its own encrypted vector (8 messages over the two
// epochs). With no host to take a gradient step either, the guest encrypts no
// broadcast: the two epochs charge no HE op and no ciphertext.
func TestSinglePartySecureSumIsLocal(t *testing.T) {
	want := map[string][2]uint64{
		"Hetero LR": {0x3fe1c9c41bbcce3d, 0x3fde3ee2fd586e43},
		"Hetero NN": {0x3fe54614d5000689, 0x3fe3e993fc9f0abc},
	}
	for model, bits := range want {
		for _, sys := range []fl.System{fl.SystemFLBooster, fl.SystemHAFLO} {
			ctx := secureSumCtx(t, sys, 1)
			m := newSecureSumModel(t, model, ctx)
			before := ctx.Costs.Snapshot()
			var got [2]uint64
			for e := range got {
				loss, err := m.TrainEpoch()
				if err != nil {
					t.Fatalf("%s on %s, epoch %d: %v", model, sys, e, err)
				}
				got[e] = math.Float64bits(loss)
			}
			if c := ctx.Costs.Snapshot(); got != bits || c.CommMsgs != 0 {
				t.Errorf("%s on %s at one party: loss bits %#x, %d messages; want %#x, none", model, sys, got, c.CommMsgs, bits)
			} else if ops, cts := c.HEOps-before.HEOps, c.Ciphertexts-before.Ciphertexts; ops != 0 || cts != 0 {
				t.Errorf("%s on %s at one party: %d HE ops and %d ciphertexts charged, want none", model, sys, ops, cts)
			}
		}
	}
}

// trimmed is what the batches the logged frames of the given kinds carry save
// against CiphertextWireBytes: a batch is as wide as its widest value (at
// least 4 bytes), so one whose every value has a leading zero byte is a byte
// or more narrower a value, and its width's varint may be a byte shorter.
// skip[kind] is how many varints a kind's payload carries ahead of its batch.
func (w *frameLog) trimmed(t *testing.T, ctx *fl.Context, skip map[string]int) int64 {
	t.Helper()
	full := ctx.Key.CiphertextBytes()
	var trim int64
	for _, msg := range w.sent {
		n, ok := skip[msg.Kind]
		if !ok {
			continue
		}
		b, err := msg.Payload, error(nil)
		for range n {
			if _, b, err = flnet.ReadUvarint(b); err != nil {
				t.Fatalf("%s frame header: %v", msg.Kind, err)
			}
		}
		nats, err := flnet.DecodeNatsInto(nil, b)
		if err != nil {
			t.Fatalf("%s frame: %v", msg.Kind, err)
		}
		width := 4
		for _, x := range nats {
			width = max(width, (x.BitLen()+7)/8)
		}
		trim += int64(flnet.BatchSize(len(nats), full) - flnet.BatchSize(len(nats), width))
	}
	return trim
}

// routeKinds are the kinds of a Hetero LR and a Hetero NN epoch's frames: a
// host's score (activation) batch, the arbiter's reply to the guest, the
// guest's broadcast, a host's return-path request and the arbiter's reply.
var routeKinds = map[string][5]string{
	"Hetero LR": {"scores", "scores-plain", "residuals", "grad-sums", "grad-plain"},
	"Hetero NN": {"acts", "act-plain", "deltas", "nn-grad", "nn-grad-plain"},
}

// checkRoute holds every logged frame of a Hetero LR or NN epoch to one of
// the model's kinds on its route — a host's batch or request to the arbiter,
// the arbiter's reply to the guest or to a host, the guest's broadcast to a
// host — so no other kind is sent, and the guest sends nothing but its
// broadcast: no ciphertext frame ahead of it.
func (w *frameLog) checkRoute(t *testing.T, model string) {
	t.Helper()
	k, guest := routeKinds[model], hostName(0)
	isHost := func(name string) bool { return name != guest && name != arbiterName }
	for i, msg := range w.sent {
		var ok bool
		switch msg.Kind {
		case k[0], k[3]:
			ok = isHost(msg.From) && msg.To == arbiterName
		case k[1]:
			ok = msg.From == arbiterName && msg.To == guest
		case k[2]:
			ok = msg.From == guest && isHost(msg.To)
		case k[4]:
			ok = msg.From == arbiterName && isHost(msg.To)
		}
		if !ok {
			t.Fatalf("%s frame %d: %q from %s to %s is on none of the protocol's routes", model, i, msg.Kind, msg.From, msg.To)
		}
	}
}

func wireBudget(t *testing.T, keyBits int) {
	ds := denseData(t, 48, 8)
	opts := testOpts()
	opts.BatchSize = 16
	var perEpoch [2]int64
	for i, sys := range []fl.System{fl.SystemFLBooster, fl.SystemNoBC} {
		ctx := testCtxKey(t, sys, keyBits)
		m, err := NewHeteroLR(ctx, ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		log := logFrames(t, m)
		plainBits := keyBits - 1
		if want := map[fl.System]int{fl.SystemFLBooster: plainBits / 64, fl.SystemNoBC: 1}[sys]; ctx.ReturnSlots() != want {
			t.Fatalf("%s: %d return slots at %d bits, want %d", sys, ctx.ReturnSlots(), keyBits, want)
		}
		parties := len(m.parts)
		hostSums := make([]int, 0, parties-1)
		for p := 1; p < parties; p++ {
			hostSums = append(hostSums, m.parts[p].NumFeatures)
		}
		header := func(from, to, kind string) int64 {
			return flnet.Message{From: from, To: to, Kind: kind}.WireSize()
		}
		var msgs, bytes int64
		for _, r := range ds.Batches(opts.BatchSize) {
			n := r[1] - r[0]
			scoreCts := ctx.PlaintextCount(n)
			s := ctx.BroadcastStride(n, hostSums)
			per := ctx.ReturnSlots()
			if s > 1 {
				per = plainBits / ((2*s - 1) * fl.BroadcastSlotBits)
			}
			// 16 rows, 2 sums a host: 3·(16 + 1) ciphertexts at s = 1, 3·(4 + 2)
			// at s = 4 (s = 5 ties and loses), the rule's pick where three
			// 105-bit slots fit.
			if want := map[bool]int{false: 1, true: 4}[keyBits == 1024 && sys == fl.SystemFLBooster]; s != want {
				t.Fatalf("%s at %d bits: stride %d, want %d", sys, keyBits, s, want)
			}
			for p := 1; p < parties; p++ {
				bytes += header(hostName(p), arbiterName, "scores") + ctx.CiphertextWireBytes(scoreCts)
				bytes += header(hostName(0), hostName(p), "residuals") + ctx.CiphertextWireBytes((n+s-1)/s)
				// Dense features: every feature has a non-zero value in every
				// batch (checked below), so a host returns dim sums.
				sums := m.parts[p].NumFeatures
				head := flnet.UvarintLen(uint64(s)) + flnet.UvarintLen(uint64(sums))
				bytes += header(hostName(p), arbiterName, "grad-sums") + int64(head) + ctx.CiphertextWireBytes((sums+per-1)/per)
				bytes += header(arbiterName, hostName(p), "grad-plain") + int64(8*sums)
				msgs += 4
			}
			bytes += header(arbiterName, hostName(0), "scores-plain") + int64(8*n)
			msgs++
			for p := 1; p < parties; p++ {
				for j := 0; j < m.parts[p].NumFeatures; j++ {
					var live bool
					for _, ex := range m.parts[p].Examples[r[0]:r[1]] {
						for k, idx := range ex.Features.Idx {
							live = live || int(idx) == j && ex.Features.Val[k] != 0
						}
					}
					if !live {
						t.Fatalf("batch %v, party %d, feature %d is all zero: the dataset does not fill the budget's dim sums", r, p, j)
					}
				}
			}
		}
		if _, err := m.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
		log.checkRoute(t, "Hetero LR")
		bytes -= log.trimmed(t, ctx, map[string]int{"scores": 0, "residuals": 0, "grad-sums": 2})
		c := ctx.Costs.Snapshot()
		if c.CommMsgs != msgs || c.CommBytes != bytes {
			t.Fatalf("%s at %d bits: epoch sent %d messages / %d bytes, the protocol budgets %d / %d",
				sys, keyBits, c.CommMsgs, c.CommBytes, msgs, bytes)
		}
		perEpoch[i] = c.CommBytes
	}
	if perEpoch[0] >= perEpoch[1] {
		t.Fatalf("%d bits: packed epoch %d B is not below the unpacked %d B", keyBits, perEpoch[0], perEpoch[1])
	}
}

// TestVerticalBytesAreTheFrames: every message of a vertical epoch is a frame
// its transport carries and its destination reads, and the communication
// component is those frames — one message a frame, their WireSize in bytes —
// for Hetero LR, NN and SBT at 256 and 1,024 bits, packed (FLBooster) and
// not (HAFLO).
func TestVerticalBytesAreTheFrames(t *testing.T) {
	for _, model := range []string{"Hetero LR", "Hetero NN", "Hetero SBT"} {
		for _, keyBits := range []int{returnKeyBits, 1024} {
			for _, sys := range []fl.System{fl.SystemFLBooster, fl.SystemHAFLO} {
				ctx := testCtxKey(t, sys, keyBits)
				ds := denseData(t, 64, 8)
				var (
					m   Model
					err error
				)
				switch model {
				case "Hetero LR":
					m, err = NewHeteroLR(ctx, ds, testOpts())
				case "Hetero NN":
					m, err = NewHeteroNN(ctx, ds, 3, testOpts())
				default:
					m, err = NewHeteroSBT(ctx, ds, testOpts())
				}
				if err != nil {
					t.Fatal(err)
				}
				log := logFrames(t, m)
				if _, err := m.TrainEpoch(); err != nil {
					t.Fatalf("%s on %s at %d bits: %v", model, sys, keyBits, err)
				}
				if model != "Hetero SBT" {
					log.checkRoute(t, model)
				}
				var bytes int64
				for _, msg := range log.sent {
					bytes += msg.WireSize()
				}
				c := ctx.Costs.Snapshot()
				if len(log.sent) == 0 || c.CommMsgs != int64(len(log.sent)) || c.CommBytes != bytes {
					t.Errorf("%s on %s at %d bits: charged %d messages / %d bytes, the transport carried %d frames / %d bytes",
						model, sys, keyBits, c.CommMsgs, c.CommBytes, len(log.sent), bytes)
				}
				for p := range ctx.Profile.Parties + 1 {
					name := arbiterName
					if p < ctx.Profile.Parties {
						name = hostName(p)
					}
					if msg, err := log.RecvTimeout(name, -1); !flnet.IsTimeout(err) {
						t.Errorf("%s on %s at %d bits: %s has an unread %q frame from %s (%v)", model, sys, keyBits, name, msg.Kind, msg.From, err)
					}
				}
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}
