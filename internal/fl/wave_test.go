package fl

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"flbooster/internal/flnet"
	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
)

// waveRun is everything a run of rounds leaves that a host job may not move:
// the frames, the aggregates and reports, the cost snapshot without its host
// clocks, and the executor's and its devices' modelled counters.
type waveRun struct {
	frames  []flnet.Message
	aggs    [][]float64
	reports []RoundReport
	costs   CostSnapshot
	devs    []gpu.Stats
	checked ghe.CheckedStats
}

// runWaves runs `rounds` rounds of p over grads and reads a waveRun off them.
func runWaves(t *testing.T, p Profile, grads [][]float64, rounds int) waveRun {
	t.Helper()
	run, err := tryWaves(p, grads, rounds)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// tryWaves is runWaves for any goroutine: it returns what failed.
func tryWaves(p Profile, grads [][]float64, rounds int) (waveRun, error) {
	var run waveRun
	ctx, err := NewContext(p)
	if err != nil {
		return run, err
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	log := &wireLog{Transport: fed.Transport}
	fed.Transport = log
	for r := 0; r < rounds; r++ {
		agg, rep, err := fed.SecureAggregateReport(grads)
		if err != nil {
			return run, fmt.Errorf("round %d: %w", r, err)
		}
		rep.Anatomy = nil // compared with rounds that open no span
		run.aggs, run.reports = append(run.aggs, agg), append(run.reports, rep)
	}
	run.readOff(ctx, log)
	return run, nil
}

// readOff reads the frames off log and the counters a host job may not move
// off ctx.
func (run *waveRun) readOff(ctx *Context, log *wireLog) {
	run.frames = log.sent
	run.costs = ctx.Costs.Snapshot()
	run.costs.HEWall, run.costs.EncodeWall, run.costs.OtherWall = 0, 0, 0
	for _, d := range ctx.Checked.Devices() {
		st := d.Stats()
		st.WallKernelTime = 0
		run.devs = append(run.devs, st)
	}
	run.checked = ctx.Checked.Stats()
}

// handRounds runs `rounds` rounds of p by hand, a client at a time: each
// client uploads on its own (Client.Upload, a host job an upload), then the
// coordinator gathers every upload in one Gather, aggregates and broadcasts,
// every client receives its copy, and the first opens it — what a Federation
// round does with the wave's encryptions split into one host job a client.
func handRounds(t *testing.T, p Profile, grads [][]float64, rounds int) waveRun {
	t.Helper()
	var run waveRun
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	names := ClientNames(p.Parties)
	log := &wireLog{Transport: flnet.NewSimTransport(ctx.Link, append(names, ServerName)...)}
	defer log.Close()
	coord := NewCoordinator(ctx)
	clients := make([]*Client, len(names))
	for i := range clients {
		clients[i] = NewClient(ctx, i)
	}
	for r := uint64(1); r <= uint64(rounds); r++ {
		rd, err := coord.Begin(p.Schedule(names, r), log)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		for i, cl := range clients {
			if _, err := cl.Upload(log, r, grads[i]); err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		}
		if err := rd.Gather(names, nil); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if err := rd.Aggregate(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if reached, err := rd.Broadcast(rd.Included()); err != nil || len(reached) != len(clients) {
			t.Fatalf("round %d: the aggregate reached %v (%v)", r, reached, err)
		}
		var frames [][]byte
		for _, cl := range clients {
			frame, _, err := cl.Receive(log, r, time.Time{})
			if err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
			frames = append(frames, frame)
		}
		agg, _, err := clients[0].Open(frames[0], len(grads[0]), rd.Included())
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if err := rd.Finish(nil); err != nil {
			t.Fatal(err)
		}
		rep := rd.Report()
		rep.Anatomy = nil // a Federation round's rows are spans this host does not open
		run.aggs, run.reports = append(run.aggs, agg), append(run.reports, rep)
	}
	run.readOff(ctx, log)
	return run
}

// waveGrads is parties gradient vectors of dim values in (−1, 1).
func waveGrads(parties, dim int) [][]float64 {
	grads := make([][]float64, parties)
	for i := range grads {
		grads[i] = make([]float64, dim)
		for j := range grads[i] {
			grads[i][j] = 0.01 * float64((i*31+j*7)%97-48)
		}
	}
	return grads
}

// TestWaveBitIdenticalToWavesOfOne: a Federation round whose clients upload
// as one wave — their encryptions one host job — leaves exactly what the same
// round leaves driven by hand with every client's upload a host job of its
// own (handRounds): byte-identical frames and aggregates, the same round
// reports, the same cost snapshot but for its host clocks, and the same
// modelled device counters, launches, faults, retries and merged set clocks.
// The host job moves host wall time only. Keys of 128, 1,024 and 2,048 bits
// on one device and two, with no faults, with injected aborts, stalls and
// OOMs, and with injected corruption under full verification.
func TestWaveBitIdenticalToWavesOfOne(t *testing.T) {
	faults := []struct {
		name string
		set  FaultPolicy
	}{
		{"clean", FaultPolicy{}},
		{"abort-stall-oom", FaultPolicy{Inject: gpu.FaultConfig{Seed: 11, AbortProb: 0.15, StallProb: 0.1, OOMProb: 0.1}}},
		{"corrupt-verified", FaultPolicy{Inject: gpu.FaultConfig{Seed: 11, CorruptProb: 0.3}, Check: ghe.CheckedConfig{VerifyFraction: 1, VerifySeed: 5}}},
	}
	injected := map[string]int64{}
	for _, bits := range []int{128, 1024, 2048} {
		for _, devices := range []int{1, 2} {
			for _, fc := range faults {
				t.Run(fmt.Sprintf("%d/D=%d/%s", bits, devices, fc.name), func(t *testing.T) {
					p := NewProfile(SystemFLBooster, bits, 4)
					p.Devices = devices
					p.Faults = fc.set
					grads := waveGrads(4, 24+bits/16)
					wave := runWaves(t, p, grads, 2)
					each := handRounds(t, p, grads, 2)
					if wave.checked.HostShards != 0 {
						t.Fatalf("%d shards fell back to the host: the host clock would differ", wave.checked.HostShards)
					}
					wave.checked.HostSim, each.checked.HostSim = 0, 0
					compareWaveRuns(t, wave, each)
					for _, st := range wave.devs {
						injected[fc.name] += st.FaultAborts + st.FaultStalls + st.FaultOOMs + st.FaultCorruptions
					}
				})
			}
		}
	}
	for _, fc := range faults[1:] {
		if injected[fc.name] == 0 {
			t.Errorf("%s: no fault was injected in any leg", fc.name)
		}
	}
}

func compareWaveRuns(t *testing.T, wave, each waveRun) {
	t.Helper()
	if len(wave.frames) != len(each.frames) {
		t.Fatalf("%d frames as one wave, %d as waves of one", len(wave.frames), len(each.frames))
	}
	for i := range wave.frames {
		if !reflect.DeepEqual(wave.frames[i], each.frames[i]) {
			t.Fatalf("frame %d (%s → %s, %s) differs", i, wave.frames[i].From, wave.frames[i].To, wave.frames[i].Kind)
		}
	}
	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"aggregates", wave.aggs, each.aggs},
		{"round reports", wave.reports, each.reports},
		{"cost snapshot", wave.costs, each.costs},
		{"device counters", wave.devs, each.devs},
		{"checked counters", wave.checked, each.checked},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s differ:\none wave:     %+v\nwaves of one: %+v", c.what, c.got, c.want)
		}
	}
}

// failAt is a BatchEncrypter whose batch k fails: the batches before it are
// the engine's, and nothing after it reaches the engine.
type failAt struct {
	*paillier.GPUBackend
	k int
}

func (b failAt) EncryptVecs(out [][]paillier.Ciphertext, pk *paillier.PublicKey, batches [][]mpint.Nat, seeds []uint64) (int, error) {
	if len(batches) <= b.k {
		return b.GPUBackend.EncryptVecs(out, pk, batches, seeds)
	}
	done, err := b.GPUBackend.EncryptVecs(out[:b.k], pk, batches[:b.k], seeds[:b.k])
	if err != nil {
		return done, err
	}
	return b.k, errors.New("injected encryption failure")
}

// TestUploadWaveStopsAtFailedMember: when member k of a wave fails to encrypt
// — its gradients do not encode, or its encryption fails — the members before
// it are delivered, in cohort order, before the wave returns k's error, and
// nothing after k is encrypted: no launch, no nonce seed drawn for it.
func TestUploadWaveStopsAtFailedMember(t *testing.T) {
	const k = 2
	for _, tc := range []struct {
		name   string
		seeds  int // nonce seeds the wave draws: one a member up to k, and k's own when it got that far
		poison func(ctx *Context, grads [][]float64)
	}{
		{"encode", k, func(_ *Context, grads [][]float64) { grads[k][3] = math.NaN() }},
		{"encrypt", k + 1, func(ctx *Context, _ [][]float64) {
			ctx.Backend = failAt{ctx.Backend.(*paillier.GPUBackend), k}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProfile(SystemFLBooster, 128, 4)
			p.Device = gpu.SmallTestDevice()
			ctx, err := NewContext(p)
			if err != nil {
				t.Fatal(err)
			}
			grads := waveGrads(4, 16)
			tc.poison(ctx, grads)
			fed := NewFederation(ctx)
			defer fed.Close()
			log := &wireLog{Transport: fed.Transport}
			wave := []*Client{fed.clients["client0"], fed.clients["client1"], fed.clients["client2"], fed.clients["client3"]}
			var settled []string
			err = uploadWave(log, 1, wave, grads, func(cl *Client, _ int, err error) error {
				if err != nil {
					t.Fatalf("%s: send failed: %v", cl.Name, err)
				}
				settled = append(settled, cl.Name)
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("client %d encrypt", k)) {
				t.Fatalf("wave error %v, want client %d's encryption failure", err, k)
			}
			if want := []string{"client0", "client1"}; !reflect.DeepEqual(settled, want) {
				t.Fatalf("settled %v, want %v", settled, want)
			}
			if len(log.sent) != k || log.sent[0].From != "client0" || log.sent[1].From != "client1" {
				t.Fatalf("sent %d frames, want client0's and client1's", len(log.sent))
			}
			if got := gpu.Sum(ctx.Checked.Devices()).KernelLaunches; got != k {
				t.Fatalf("%d launches, want %d: nothing after member %d may be launched", got, k, k)
			}
			ref := NewProfile(SystemFLBooster, 128, 4).Seed
			for range tc.seeds {
				ref = ref*6364136223846793005 + 1442695040888963407
			}
			if got := ctx.SeedCursor(); got != ref {
				t.Fatalf("seed cursor %#x, want %#x: %d seeds drawn", got, ref, tc.seeds)
			}
			if got := ctx.Costs.Snapshot(); got.Ciphertexts == 0 || got.HEOps != got.Ciphertexts {
				t.Fatalf("the delivered members' encryptions are not charged: %+v", got)
			}
		})
	}
}

// TestConcurrentFederationsShareWorkers: two federations running rounds at once
// on two goroutines — their waves' host jobs and every other launch on the one
// process-wide worker pool — each put the frames on the wire, decrypt the
// aggregates and charge the costs they do running alone. Run under -race by
// make race.
func TestConcurrentFederationsShareWorkers(t *testing.T) {
	profile := func(seed uint64) Profile {
		p := NewProfile(SystemFLBooster, 128, 64)
		p.Device = gpu.SmallTestDevice()
		p.RBits = 16
		p.Seed = seed
		p.Cohort = CohortPolicy{Size: 16, Fanout: 4, MaxInflight: 8}
		return p
	}
	grads := waveGrads(64, 16)
	solo := []waveRun{runWaves(t, profile(1), grads, 2), runWaves(t, profile(2), grads, 2)}
	var both [2]waveRun
	var errs [2]error
	var wg sync.WaitGroup
	for i := range both {
		wg.Add(1)
		go func() {
			defer wg.Done()
			both[i], errs[i] = tryWaves(profile(uint64(i+1)), grads, 2)
		}()
	}
	wg.Wait()
	for i := range both {
		if errs[i] != nil {
			t.Fatalf("federation %d: %v", i, errs[i])
		}
		compareWaveRuns(t, both[i], solo[i])
	}
}

// discard is a transport that takes every frame and delivers none.
type discard struct{ flnet.Transport }

func (discard) Send(flnet.Message) error { return nil }

// BenchmarkUploadWave is one upload wave — encode, encrypt, frame, send — as
// one host job ("wave") and a client at a time ("each"): 32 members × 16
// values at 128 bits (cohort_tree_128's wave), 4 × 201 at 2,048
// (epoch_homo_lr_2048's).
func BenchmarkUploadWave(b *testing.B) {
	for _, shape := range []struct{ bits, members, values int }{{128, 32, 16}, {2048, 4, 201}} {
		p := NewProfile(SystemFLBooster, shape.bits, shape.members)
		if shape.bits == 128 {
			p.RBits = 16
		}
		ctx, err := NewContext(p)
		if err != nil {
			b.Fatal(err)
		}
		fed := NewFederation(ctx)
		wave := make([]*Client, shape.members)
		for i := range wave {
			wave[i] = fed.clients[ClientName(i)]
		}
		grads := waveGrads(shape.members, shape.values)
		ok := func(*Client, int, error) error { return nil }
		b.Run(fmt.Sprintf("%d/wave", shape.bits), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if err := uploadWave(discard{}, 1, wave, grads, ok); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%d/each", shape.bits), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				for i, cl := range wave {
					if _, err := cl.Upload(discard{}, 1, grads[i]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		fed.Close()
	}
}
