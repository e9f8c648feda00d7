package fl

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"flbooster/internal/batch"
	"flbooster/internal/flnet"
	"flbooster/internal/mpint"
)

// openShape is one configuration FuzzOpenAggregate opens frames under: a
// client on its own 128-bit context, the schedule and dimension of the round
// its seed frames come from, and those frames.
type openShape struct {
	name   string
	client *Client
	sched  Schedule
	frames [][]byte
}

const openFuzzDim = 10

var (
	openShapesOnce sync.Once
	openShapesList []openShape
)

// openShapes builds the three shapes — flat and tree under FLBooster's
// packing, then flat under HAFLO's one slot a plaintext — and takes each
// one's seed frames off the wire of two real first rounds (a full one and one
// a client's upload was dropped from, so K < parties).
func openShapes(tb testing.TB) []openShape {
	openShapesOnce.Do(func() {
		for _, sh := range []struct {
			name   string
			sys    System
			fanout int
		}{
			{"plain-flat", SystemFLBooster, 0}, {"plain-tree", SystemFLBooster, 2},
			{"uncompressed-flat", SystemHAFLO, 0},
		} {
			p := pinnedDraw(sh.sys, 1, quorumPolicy).p
			p.Seed = 41
			p.Cohort.Fanout = sh.fanout
			shape := openShape{name: sh.name, sched: p.Schedule(ClientNames(p.Parties), 1)}
			for _, drop := range []bool{false, true} {
				ctx, err := NewContext(p)
				if err != nil {
					tb.Fatal(err)
				}
				fed := NewFederation(ctx)
				log := &wireLog{Transport: fed.Transport}
				var cfg flnet.ChaosConfig
				if drop {
					cfg.DropFrom, cfg.DropKind = ClientName(3), "grads"
				}
				fed.Transport = flnet.NewChaosTransport(log, cfg)
				if _, _, err := fed.SecureAggregateReport(testGrads(p.Parties, openFuzzDim)); err != nil {
					tb.Fatal(err)
				}
				for _, msg := range log.sent {
					if msg.Kind == AggregateKind && msg.To == ClientName(0) {
						shape.frames = append(shape.frames, msg.Payload)
					}
				}
				shape.client = fed.clients[ClientName(0)]
				fed.Close()
			}
			if len(shape.frames) != 2 {
				tb.Fatalf("%s: %d aggregate frames on the wire, want 2", sh.name, len(shape.frames))
			}
			openShapesList = append(openShapesList, shape)
		}
	})
	return openShapesList
}

// tooWideFrame is a K = 1 aggregate frame for sh whose first ciphertext holds
// 2^(|n|−2): a plaintext below n with a bit above every slot it carries.
func tooWideFrame(tb testing.TB, sh openShape) []byte {
	ctx := sh.client.ctx
	pts := make([]mpint.Nat, ctx.PlaintextCount(openFuzzDim))
	pts[0] = mpint.Lsh(mpint.FromUint64(1), uint(ctx.Key.N.BitLen()-2))
	cts, err := ctx.Backend.EncryptVec(&ctx.Key.PublicKey, pts, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return append(binary.AppendUvarint(nil, 1), encodeCiphertexts(cts)...)
}

// TestOpenRejectsTooWidePlaintext: an aggregate whose plaintext has bits
// above its slots is another party's input, so Open rejects it with
// ErrBadAggregate, under a packing of several slots (whose high bits were
// once dropped) and under one slot a plaintext (whose region is one word).
func TestOpenRejectsTooWidePlaintext(t *testing.T) {
	shapes := openShapes(t)
	for _, sh := range []openShape{shapes[0], shapes[2]} {
		sums, _, err := sh.client.Open(tooWideFrame(t, sh), openFuzzDim, nil)
		if !errors.Is(err, ErrBadAggregate) || !errors.Is(err, batch.ErrTooWide) || sums != nil {
			t.Errorf("%s: opened to %v (%v), want ErrBadAggregate over batch.ErrTooWide", sh.name, sums, err)
		}
	}
}

// FuzzOpenAggregate feeds arbitrary bytes to the one function every client
// parses its aggregate frame with — Client.Open: the K prefix and its
// cross-check against the contributors, DecodeCiphertexts and the
// decryption. It must never panic;
// every reject is typed (a frame error, or ErrBadAggregate once the frame
// parsed); a K outside [1, parties] is a frame error raised before anything
// is decrypted; an accepted frame yields exactly the round's dimension at the
// K the frame carries; and the allocation is bounded by the input's length.
// The seed corpus (real frames and their truncations) is under
// testdata/fuzz/FuzzOpenAggregate.
func FuzzOpenAggregate(f *testing.F) {
	for s, sh := range openShapes(f) {
		for _, frame := range sh.frames {
			for _, known := range []bool{false, true} {
				f.Add(frame, uint8(s), known)
				f.Add(frame[:len(frame)/2], uint8(s), known)
				f.Add(frame[:5], uint8(s), known)
				f.Add(append([]byte{frame[0] | 0x80, 0}, frame[1:]...), uint8(s), known) // K < 128 as a non-minimal varint
			}
		}
	}
	f.Add([]byte{}, uint8(0), false)
	f.Add([]byte{0, 1, 4, 0, 0, 0, 7}, uint8(1), false) // K = 0
	f.Add([]byte{5, 1, 4, 0, 0, 0, 7}, uint8(0), true)  // K above the parties
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(2), false)
	f.Add(tooWideFrame(f, openShapes(f)[2]), uint8(2), false)
	f.Fuzz(func(t *testing.T, frame []byte, shape uint8, known bool) {
		shapes := openShapes(t)
		sh := shapes[int(shape)%len(shapes)]
		ctx := sh.client.ctx
		parties := ctx.Profile.Parties
		var contributors []string
		if known {
			contributors = sh.sched.Cohort
		}
		heBefore := ctx.Costs.Snapshot().HEOps
		var sums []float64
		var k int
		var err error
		grew := allocatedBy(func() { sums, k, err = sh.client.Open(frame, openFuzzDim, contributors) })
		if bound := uint64(openAllocPerByte*len(frame) + openAllocSlack); grew > bound {
			t.Fatalf("%s: Open allocated %d bytes on a %d-byte frame (bound %d)", sh.name, grew, len(frame), bound)
		}
		claimed := -1
		if k, _, err := flnet.ReadUvarint(frame); err == nil {
			claimed = int(min(k, math.MaxInt32))
		}
		if claimed < 1 || claimed > parties {
			if !isFrameError(err) {
				t.Fatalf("%s: K = %d of %d parties: want a frame error, got %v", sh.name, claimed, parties, err)
			}
			if ctx.Costs.Snapshot().HEOps != heBefore {
				t.Fatalf("%s: K = %d of %d parties was rejected only after something was decrypted", sh.name, claimed, parties)
			}
		}
		if err != nil {
			if !isFrameError(err) && !errors.Is(err, ErrBadAggregate) {
				t.Fatalf("%s: untyped reject: %v", sh.name, err)
			}
			if sums != nil {
				t.Fatalf("%s: reject (%v) still returned %d values", sh.name, err, len(sums))
			}
			return
		}
		if k != claimed || len(sums) != openFuzzDim {
			t.Fatalf("%s: accepted frame claiming K = %d opened to %d values at K = %d", sh.name, claimed, len(sums), k)
		}
	})
}

// An accepted frame pays for its decryption: at 128 bits a ciphertext is at
// most 36 bytes of frame and decrypts in a few kilobytes of scratch. The
// slack covers what a frame of any length costs (the aggregation object,
// size-class rounding) and whatever the test binary's other
// goroutines allocate between the two MemStats readings.
const (
	openAllocPerByte = 512
	openAllocSlack   = 128 << 10
)

func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestOpenAggregateSeedFrames opens each shape's real frames outside the
// fuzzer: whole frames are accepted with and without the contributor list,
// the K they carry is the round's, and every truncation is a typed reject.
func TestOpenAggregateSeedFrames(t *testing.T) {
	for _, sh := range openShapes(t) {
		for i, frame := range sh.frames {
			wantK := sh.client.ctx.Profile.Parties - i // the second round lost one upload
			contributors := sh.sched.Cohort[:wantK]
			for _, who := range [][]string{nil, contributors} {
				sums, k, err := sh.client.Open(frame, openFuzzDim, who)
				if err != nil || k != wantK || len(sums) != openFuzzDim {
					t.Fatalf("%s frame %d: opened to %d values at K = %d (%v), want %d at %d", sh.name, i, len(sums), k, err, openFuzzDim, wantK)
				}
			}
			for cut := 0; cut < len(frame); cut++ {
				if _, _, err := sh.client.Open(frame[:cut], openFuzzDim, nil); !isFrameError(err) && !errors.Is(err, ErrBadAggregate) {
					t.Fatalf("%s frame %d cut to %d bytes: %v, want a typed reject", sh.name, i, cut, err)
				}
			}
		}
	}
}

// TestRetiredGroupedFramesReject: no shape speaks the retired grouped
// aggregate frame ("gagg", a group directory ahead of the group sums), so the
// grouped frames kept in FuzzOpenAggregate's corpus are hostile input. Each
// opens under every shape, with and without the contributors, to a frame
// error, and nothing is decrypted.
func TestRetiredGroupedFramesReject(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzOpenAggregate", "grouped-*"))
	if err != nil || len(paths) != 8 {
		t.Fatalf("%d grouped corpus files (%v), want 8", len(paths), err)
	}
	for _, path := range paths {
		frame := corpusBytes(t, path)
		for _, sh := range openShapes(t) {
			for _, who := range [][]string{nil, sh.sched.Cohort} {
				ctx := sh.client.ctx
				heBefore := ctx.Costs.Snapshot().HEOps
				sums, k, err := sh.client.Open(frame, openFuzzDim, who)
				if !isFrameError(err) || sums != nil {
					t.Errorf("%s under %s (contributors %v): opened to %d values at K = %d (%v), want a frame error",
						filepath.Base(path), sh.name, who != nil, len(sums), k, err)
				}
				if ops := ctx.Costs.Snapshot().HEOps - heBefore; ops != 0 {
					t.Errorf("%s under %s: %d HE ops charged before the reject", filepath.Base(path), sh.name, ops)
				}
			}
		}
	}
}

// corpusBytes reads the first value of a "go test fuzz v1" corpus file, a
// []byte literal.
func corpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(blob), "\n")
	if len(lines) < 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s is not a fuzz corpus file", path)
	}
	lit, ok := strings.CutPrefix(lines[1], "[]byte(")
	if lit, ok = strings.CutSuffix(lit, ")"); !ok {
		t.Fatalf("%s: first value %q is not a []byte", path, lines[1])
	}
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// journalSeeds is what FuzzJournalReplay starts from: the journal file of a
// real two-round epoch whose coordinator crashed once its second aggregate
// was durable, that file torn mid-record and with its first byte corrupted,
// and journals that break each rule of Replay's grammar.
func journalSeeds(tb testing.TB) [][]byte {
	path := filepath.Join(tb.TempDir(), "epoch.wal")
	store, err := OpenFileStore(path)
	if err != nil {
		tb.Fatal(err)
	}
	j, err := NewJournal(store)
	if err != nil {
		tb.Fatal(err)
	}
	j.Fail = func(rec JournalRecord) error {
		if rec.Kind == EventAggregated && rec.Round == 2 {
			return ErrCoordinatorCrash
		}
		return nil
	}
	p := pinnedDraw(SystemFLBooster, 1, quorumPolicy).p
	ctx, err := NewContext(p)
	if err != nil {
		tb.Fatal(err)
	}
	fed := NewFederation(ctx)
	fed.AttachJournal(j)
	for round := 1; round <= 2; round++ {
		if _, err := fed.SecureAggregate(testGrads(p.Parties, 4)); err != nil && !errors.Is(err, ErrCoordinatorCrash) {
			tb.Fatal(err)
		}
	}
	fed.Close()
	store.Close()
	real, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	if st, err := Replay(mustLoad(tb, path)); err != nil || st.Completed != 1 || st.Resume == nil || st.Resume.Phase != PhaseBroadcast {
		tb.Fatalf("the crashed epoch's journal replays to %+v (%v): want one round done and the second resuming at broadcast", st, err)
	}
	corrupt := bytes.Clone(real)
	corrupt[0] = '#'
	lines := func(recs ...JournalRecord) []byte {
		var b []byte
		for _, rec := range recs {
			line, err := json.Marshal(rec)
			if err != nil {
				tb.Fatal(err)
			}
			b = append(append(b, line...), '\n')
		}
		return b
	}
	payload := []byte("aggregate")
	return [][]byte{
		real, real[:len(real)/2], corrupt, {}, []byte("null\n{}\n"),
		lines(JournalRecord{Seq: 2, Kind: EventRoundStart, Round: 1}),
		lines(JournalRecord{Seq: 1, Kind: EventRoundStart, Round: 1}, JournalRecord{Seq: 2, Kind: EventRoundStart, Round: 2}),
		lines(JournalRecord{Seq: 1, Kind: EventRoundStart, Round: 1}, JournalRecord{Seq: 2, Kind: EventAggregated, Round: 1, Digest: PayloadDigest(payload) ^ 1, Payload: payload}),
		lines(JournalRecord{Seq: 1, Kind: EventRoundDone, Round: 1}),
		lines(JournalRecord{Seq: 1, Kind: "round-paused", Round: 1}),
		lines(JournalRecord{Seq: 1, Kind: EventRoundStart, Round: 1}, JournalRecord{Seq: 2, Kind: EventDrained, Round: 1, Cursor: 4}),
	}
}

func mustLoad(tb testing.TB, path string) []JournalRecord {
	store, err := OpenFileStore(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer store.Close()
	recs, err := store.Load()
	if err != nil {
		tb.Fatal(err)
	}
	return recs
}

// FuzzJournalReplay feeds arbitrary bytes, as a journal file, to what a
// restarted coordinator reads its journal with — FileStore.Load, then Replay.
// It must never panic; every reject is ErrJournalCorrupt; an accepted journal
// replays to a state that accounts for every record, resuming at upload or at
// broadcast when a round is open; and the allocation is bounded by the
// input's length. The seed corpus (a real crashed epoch's journal, its torn
// and corrupted copies, and one journal a grammar rule) is under
// testdata/fuzz/FuzzJournalReplay.
func FuzzJournalReplay(f *testing.F) {
	for _, seed := range journalSeeds(f) {
		f.Add(seed)
	}
	// One file a worker, rewritten an input at a time: a directory an input
	// would make every execution, and so the minimising of every new input,
	// several times slower.
	path := filepath.Join(f.TempDir(), "epoch.wal")
	f.Fuzz(func(t *testing.T, blob []byte) {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		store, err := OpenFileStore(path)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		var recs []JournalRecord
		var st RecoveryState
		grew := allocatedBy(func() {
			if recs, err = store.Load(); err == nil {
				st, err = Replay(recs)
			}
		})
		if bound := uint64(journalAllocPerByte*len(blob) + journalAllocSlack); grew > bound {
			t.Fatalf("Load and Replay allocated %d bytes on a %d-byte journal (bound %d)", grew, len(blob), bound)
		}
		if err != nil {
			if !errors.Is(err, ErrJournalCorrupt) {
				t.Fatalf("untyped reject: %v", err)
			}
			return
		}
		if st.Records != len(recs) || st.Completed+st.Failed+st.Drained > len(recs) || len(st.Digests) > st.Completed {
			t.Fatalf("%d records replayed to %+v", len(recs), st)
		}
		if rp := st.Resume; rp != nil && rp.Phase != PhaseUpload && rp.Phase != PhaseBroadcast {
			t.Fatalf("open round %d resumes at phase %q", rp.Round, rp.Phase)
		}
	})
}

// A journal line decodes into a record of about 200 bytes, and the shortest
// line that does ("{}") is three bytes of file; the per-line decoder state and
// the record slice's doubling come to a few hundred more. The slack covers the
// file read's and the scanner's fixed buffers and whatever the test binary's
// other goroutines allocate between the two MemStats readings.
const (
	journalAllocPerByte = 512
	journalAllocSlack   = 128 << 10
)
