package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"flbooster/internal/fl"
	"flbooster/internal/flnet"
	"flbooster/internal/obs"
	"flbooster/internal/quant"
)

func TestParseFloats(t *testing.T) {
	got, err := parseFloats("0.1, -2.5,3")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.1, -2.5, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseFloats = %v", got)
		}
	}
	if _, err := parseFloats(""); err == nil {
		t.Fatal("empty should fail")
	}
	if _, err := parseFloats("a,b"); err == nil {
		t.Fatal("non-numeric should fail")
	}
	// A NaN has no quantization: it is refused at the flag, not uploaded as +α.
	for _, s := range []string{"NaN", "0.1,nan", "0, NAN"} {
		if _, err := parseFloats(s); !errors.Is(err, quant.ErrNaN) {
			t.Errorf("parseFloats(%q) = %v, want quant.ErrNaN", s, err)
		}
	}
	// ±Inf is a value past the bound and clamps to ±α, as documented.
	if got, err := parseFloats("Inf,-Inf"); err != nil || !math.IsInf(got[0], 1) || !math.IsInf(got[1], -1) {
		t.Fatalf("parseFloats(Inf,-Inf) = %v, %v", got, err)
	}
}

func TestDemoEndToEnd(t *testing.T) {
	// Full hub + server + clients over loopback TCP with a small key, sharing
	// one observability bundle across the in-process parties.
	o := obs.New(9)
	if err := runDemo(opts{clients: 3, dim: 4, keyBits: 128, seed: 9, o: o}); err != nil {
		t.Fatal(err)
	}
	if o.Recorder().Len() == 0 {
		t.Fatal("demo with tracing recorded no spans")
	}
	if o.Metrics().Counter("net.hub.msgs") == 0 {
		t.Fatal("demo published no hub traffic metrics")
	}
	// The round's counters are the coordinator's, not the in-process host's:
	// a server over TCP publishes the same ones fl.Federation does.
	if got := o.Metrics().Counter("fl.server.rounds"); got != 1 {
		t.Fatalf("fl.server.rounds = %d, want 1", got)
	}
	var text strings.Builder
	if err := o.Metrics().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "gauge fl.server.round_scale 1\n") {
		t.Fatalf("no round_scale gauge for the server in:\n%s", text.String())
	}
}

func TestDemoMultiDeviceRound(t *testing.T) {
	// Every party shards its vector HE ops across a 2-device set; the round
	// must complete over real loopback TCP exactly like the single-device
	// demo (bit-exactness of the sharded engine is pinned in fl's tests).
	if err := runDemo(opts{clients: 3, dim: 4, keyBits: 128, devices: 2, seed: 9}); err != nil {
		t.Fatal(err)
	}
}

func TestDemoQuorumSurvivesStraggler(t *testing.T) {
	// Client 0 delays its upload past the gather deadline: with quorum 3 of
	// 4 the round must complete (and the straggler still terminate) instead
	// of stalling on the missing upload.
	done := make(chan error, 1)
	go func() {
		done <- runDemo(opts{
			clients: 4, dim: 4, keyBits: 128, seed: 9,
			quorum: 3, timeout: 250 * time.Millisecond, straggle: 900 * time.Millisecond,
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("degraded demo hung")
	}
}

func TestDemoQuorumBelowThresholdFails(t *testing.T) {
	// Every client misses an immediate deadline: the server must fail with
	// a quorum error rather than aggregate nothing or hang. The straggler
	// demo path only delays client 0, so demand a full quorum of 2.
	done := make(chan error, 1)
	go func() {
		done <- runDemo(opts{
			clients: 2, dim: 2, keyBits: 128, seed: 9,
			quorum: 2, timeout: time.Nanosecond, straggle: 500 * time.Millisecond,
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("below-quorum demo should fail")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("below-quorum demo hung")
	}
}

func TestAggregateIgnoresArrivalOrder(t *testing.T) {
	// The journaled aggregate must be a function of who contributed, not of
	// whose packet reached the server first: delay a different client in
	// each run and demand the same journaled payload digest.
	vals := [][]float64{{0.1, 0.2}, {-0.05, 0.25}, {0.3, -0.1}, {0.15, 0.05}, {-0.2, 0.1}}
	digests := map[int]uint64{}
	for _, straggler := range []int{0, 2, 4} {
		hub, err := flnet.NewTCPHub("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		journal := filepath.Join(t.TempDir(), "round.journal")
		errs := make(chan error, len(vals)+1)
		go func() {
			errs <- runServer(opts{
				addr: hub.Addr(), clients: len(vals), keyBits: 128, seed: 9,
				journal: journal,
			})
		}()
		for i := range vals {
			delay := time.Duration(0)
			if i == straggler {
				delay = 200 * time.Millisecond
			}
			go func(id int, delay time.Duration) {
				errs <- runClient(opts{
					addr: hub.Addr(), id: id, clients: len(vals), keyBits: 128, seed: 9,
					vals: vals[id], straggle: delay,
				})
			}(i, delay)
		}
		for i := 0; i < len(vals)+1; i++ {
			select {
			case err := <-errs:
				if err != nil {
					t.Fatalf("straggler %d: %v", straggler, err)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("straggler %d: round hung", straggler)
			}
		}
		hub.Close()
		state := replayJournal(t, journal)
		if state.Completed != 1 || state.Digests[demoRound] == 0 {
			t.Fatalf("straggler %d: journal replayed wrong: %+v", straggler, state)
		}
		digests[straggler] = state.Digests[demoRound]
	}
	if digests[0] != digests[2] || digests[0] != digests[4] {
		t.Fatalf("aggregate depends on upload arrival order: digests %#x", digests)
	}
}

// replayJournal loads and replays a server journal file for assertions.
func replayJournal(t *testing.T, path string) fl.RecoveryState {
	t.Helper()
	store, err := fl.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	recs, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	state, err := fl.Replay(recs)
	if err != nil {
		t.Fatal(err)
	}
	return state
}

func TestServerGracefulDrainAborts(t *testing.T) {
	// A drain signal with zero uploads (below quorum) must exit cleanly —
	// nil error, so main exits zero — leaving the abandoned round journaled
	// as drained with no open resume point.
	hub, err := flnet.NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	journal := filepath.Join(t.TempDir(), "round.journal")

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- runServer(opts{
			addr: hub.Addr(), clients: 2, keyBits: 128, seed: 9,
			journal: journal, stop: stop,
		})
	}()
	close(stop) // closed channels are always ready: no upload can win the race
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain below quorum must exit clean, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain hung")
	}
	state := replayJournal(t, journal)
	if state.Drained != 1 || state.Resume != nil || state.Completed != 0 {
		t.Fatalf("drained journal replayed wrong: %+v", state)
	}
}

func TestServerDrainFinishesWithQuorum(t *testing.T) {
	// A drain signal after quorum is met must finish the round — aggregate,
	// broadcast, journal round-done — not abandon the connected client.
	hub, err := flnet.NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	journal := filepath.Join(t.TempDir(), "round.journal")

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- runServer(opts{
			addr: hub.Addr(), clients: 2, keyBits: 128, seed: 9,
			quorum: 1, journal: journal, stop: stop,
		})
	}()
	clientErr := make(chan error, 1)
	go func() {
		clientErr <- runClient(opts{
			addr: hub.Addr(), id: 0, clients: 2, keyBits: 128, seed: 9,
			vals: []float64{0.5, -0.25},
		})
	}()

	// Drain only after the upload has been routed through the hub (plus a
	// beat for the server loop to consume it), so quorum 1 is already met.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, msgsRouted, _ := hub.Meter().Snapshot()
		if msgsRouted >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("upload never reached the hub")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(250 * time.Millisecond)
	close(stop)

	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("drain with quorum met must finish the round: %v", err)
			}
		case err := <-clientErr:
			if err != nil {
				t.Fatalf("client failed: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("drain-with-quorum run hung")
		}
	}
	state := replayJournal(t, journal)
	if state.Completed != 1 || state.Drained != 0 || state.Resume != nil {
		t.Fatalf("drain-with-quorum journal replayed wrong: %+v", state)
	}
}

func TestServerCrashResumeBroadcast(t *testing.T) {
	// Kill the server at the aggregate boundary (nonzero exit), restart it
	// with -resume: it must broadcast the journaled payload to the still-
	// waiting clients without re-gathering, and a further -resume restart
	// must be a no-op because the journal shows the round complete.
	hub, err := flnet.NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	journal := filepath.Join(t.TempDir(), "round.journal")

	vals := [][]float64{{0.1, 0.2, 0.3, 0.4}, {-0.05, 0.25, 0, 0.5}}
	clientErr := make(chan error, 2)
	for i := range vals {
		go func(id int) {
			clientErr <- runClient(opts{
				addr: hub.Addr(), id: id, clients: 2, keyBits: 128, seed: 9,
				vals: vals[id],
			})
		}(i)
	}

	err = runServer(opts{
		addr: hub.Addr(), clients: 2, keyBits: 128, seed: 9,
		journal: journal, failpoint: "aggregated",
	})
	if err == nil || !strings.Contains(err.Error(), "failpoint") {
		t.Fatalf("failpoint run returned %v", err)
	}
	mid := replayJournal(t, journal)
	if mid.Resume == nil || mid.Resume.Phase != fl.PhaseBroadcast {
		t.Fatalf("crash left no broadcast resume point: %+v", mid)
	}

	if err := runServer(opts{
		addr: hub.Addr(), clients: 2, keyBits: 128, seed: 9,
		journal: journal, resume: true,
	}); err != nil {
		t.Fatalf("resume run failed: %v", err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-clientErr:
			if err != nil {
				t.Fatalf("client failed after resume: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("clients never received the resumed broadcast")
		}
	}
	state := replayJournal(t, journal)
	if state.Completed != 1 || state.Resume != nil || state.Digests[demoRound] == 0 {
		t.Fatalf("resumed journal replayed wrong: %+v", state)
	}

	// Third incarnation: round already done, exit zero without dialing.
	if err := runServer(opts{
		addr: "0.0.0.0:1", clients: 2, keyBits: 128, seed: 9,
		journal: journal, resume: true,
	}); err != nil {
		t.Fatalf("resume of a completed round must be a no-op: %v", err)
	}
}

func TestFlagValidation(t *testing.T) {
	// Inconsistent flag combinations must fail at startup with a typed
	// ConfigError naming the offending flag, not mid-round.
	cases := []struct {
		args []string
		flag string
	}{
		{[]string{"demo", "-clients", "0"}, "clients"},
		{[]string{"client", "-id", "7", "-clients", "4", "-values", "1"}, "id"},
		{[]string{"client", "-id", "-1", "-values", "1"}, "id"},
		{[]string{"demo", "-dim", "0"}, "dim"},
		{[]string{"server", "-clients", "4", "-cohort", "9"}, "cohort"},
		{[]string{"server", "-cohort", "-1"}, "cohort"},
		{[]string{"server", "-fanout", "1"}, "fanout"},
		{[]string{"server", "-fanout", "-2"}, "fanout"},
		{[]string{"demo", "-quorum", "-1"}, "quorum"},
		{[]string{"demo", "-clients", "4", "-quorum", "5"}, "quorum"},
		{[]string{"server", "-timeout", "-1s"}, "timeout"},
		{[]string{"client", "-straggle", "-5s", "-values", "0.1"}, "straggle"},
		{[]string{"server", "-clients", "8", "-cohort", "3", "-quorum", "4"}, "quorum"},
		{[]string{"server", "-devices", "-1"}, "devices"},
		{[]string{"demo", "-devices", "65"}, "devices"},
		{[]string{"demo", "-bits", "16"}, "bits"},
		{[]string{"demo", "-bits", "33"}, "bits"},                                     // odd: key generation would never finish
		{[]string{"server", "-failpoint", "aggregated"}, "failpoint"},                 // no journal: the round would run clean
		{[]string{"server", "-resume"}, "resume"},                                     // no journal: the round would start fresh
		{[]string{"server", "-failpoint", "bogus", "-journal", "x.wal"}, "failpoint"}, // no such record: the crash would never fire
		{[]string{"demo", "-failpoint", "round-start"}, "failpoint"},                  // demo hosts the server role too
	}
	for _, tc := range cases {
		err := run(tc.args, nil)
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("run(%v) = %v, want ConfigError on -%s", tc.args, err, tc.flag)
			continue
		}
		if ce.Flag != tc.flag {
			t.Errorf("run(%v) flagged -%s (%s), want -%s", tc.args, ce.Flag, ce.Reason, tc.flag)
		}
	}
	// The retired -chunk flag is not a ConfigError: it no longer parses.
	if err := run([]string{"demo", "-chunk", "2"}, nil); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined: -chunk") {
		t.Errorf("run(demo -chunk 2) = %v, want an unknown-flag error", err)
	}
	// A consistent combination must pass validation and fail later on the
	// unreachable address instead, proving the checks are not over-eager.
	err := run([]string{"client", "-clients", "8", "-cohort", "3", "-quorum", "3",
		"-values", "1", "-addr", "0.0.0.0:1"}, nil)
	var ce *ConfigError
	if err == nil || errors.As(err, &ce) {
		t.Fatalf("consistent flags returned %v, want a dial error", err)
	}
}

func TestDemoSampledTreeRound(t *testing.T) {
	// Cross-device demo: 3 of 5 clients are sampled and the server folds the
	// arriving uploads through a fan-out-2 tree. The unsampled clients must
	// still terminate on the broadcast.
	done := make(chan error, 1)
	go func() {
		done <- runDemo(opts{clients: 5, dim: 4, keyBits: 128, seed: 9, cohort: 3, fanout: 2})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("sampled tree demo hung")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil, nil); err == nil {
		t.Fatal("no command should fail")
	}
	if err := run([]string{"nope"}, nil); err == nil {
		t.Fatal("unknown command should fail")
	}
	if err := run([]string{"client", "-values", ""}, nil); err == nil {
		t.Fatal("client without values should fail")
	}
}

// tcpRound runs the server and one client process-equivalent per vector over
// a fresh hub and returns what each client decrypted. serve lets a test run
// the server role its own way (crash it, resume it) and decide when the
// clients start; nil starts them and runs the server once.
func tcpRound(t *testing.T, o opts, vals [][]float64, serve func(o opts, startClients func()) error) [][]float64 {
	t.Helper()
	hub, err := flnet.NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	o.addr, o.clients = hub.Addr(), len(vals)
	sums := make([][]float64, len(vals))
	errs := make(chan error, len(vals)+1)
	var once sync.Once
	startClients := func() {
		once.Do(func() {
			for i := range vals {
				party := o
				party.id, party.vals = i, vals[i]
				go func() {
					var err error
					if sums[party.id], err = clientRound(party); err != nil {
						err = fmt.Errorf("client%d: %w", party.id, err)
					}
					errs <- err
				}()
			}
		})
	}
	if serve == nil {
		serve = func(o opts, startClients func()) error {
			startClients()
			return runServer(o)
		}
	}
	go func() {
		err := serve(o, startClients)
		if err != nil {
			err = fmt.Errorf("server: %w", err)
		}
		errs <- err
	}()
	for i := 0; i < len(vals)+1; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("round over TCP hung")
		}
	}
	return sums
}

// serverUp waits until the server process journaling to path has written its
// n-th record. The server dials the hub before it journals its round-start,
// and DialHub returns once the hub has registered the name, so clients
// started after this are routed to that server and to no earlier incarnation:
// the hub refuses a hello read late from an earlier connection.
func serverUp(path string, n int) error {
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if blob, err := os.ReadFile(path); err == nil && strings.Count(string(blob), "\n") >= n {
			return nil
		}
	}
	return fmt.Errorf("journal %s never reached %d records", path, n)
}

// inProcessRound is the same round on fl.Federation: same flags, same profile,
// same vectors, every party in one process on one SimTransport.
func inProcessRound(t *testing.T, o opts, vals [][]float64) []float64 {
	t.Helper()
	o.clients = len(vals)
	ctx, err := o.context("in-process")
	if err != nil {
		t.Fatal(err)
	}
	fed := fl.NewFederation(ctx)
	defer fed.Close()
	sum, err := fed.SecureAggregate(vals)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

var sweepVals = [][]float64{{0.1, 0.2, -0.3}, {-0.05, 0.25, 0.1}, {0.3, -0.1, 0.2}, {0.15, 0.05, -0.25}}

// TestTCPRoundEqualsInProcessRound: the multi-process round and fl.Federation
// run the same two machines, so on the same seed every client over TCP
// decrypts exactly the vector the in-process round returns — equality, not a
// tolerance: the nonces differ (each process has its own cursor), the
// plaintext sums do not.
func TestTCPRoundEqualsInProcessRound(t *testing.T) {
	for name, o := range map[string]opts{
		"plain":        {keyBits: 128, seed: 9},
		"sampled-tree": {keyBits: 128, seed: 9, cohort: 3, fanout: 2},
	} {
		t.Run(name, func(t *testing.T) {
			want := inProcessRound(t, o, sweepVals)
			for id, got := range tcpRound(t, o, sweepVals, nil) {
				if !sameBits(got, want) {
					t.Fatalf("client%d over TCP decrypted %v, the in-process round %v", id, got, want)
				}
			}
		})
	}
}

// TestClientSkipsStaleAggregate: a leftover aggregate frame of an earlier
// round is already waiting at client 0 when the round starts. The client used
// to take the first frame it received for the aggregate; it now skips what is
// not this round's and decrypts what everyone else does.
func TestClientSkipsStaleAggregate(t *testing.T) {
	o := opts{keyBits: 128, seed: 9}
	want := inProcessRound(t, o, sweepVals)
	o.journal = filepath.Join(t.TempDir(), "round.journal")
	got := tcpRound(t, o, sweepVals, func(o opts, startClients func()) error {
		conn, err := flnet.DialHub(o.addr, fl.ServerName)
		if err != nil {
			return err
		}
		// Queued at the hub until client0 dials, so it is the first frame
		// client0 receives. Its K is plausible and its body is not ciphertexts.
		err = conn.Send(flnet.Message{From: fl.ServerName, To: fl.ClientName(0), Kind: "agg", Round: 0,
			Payload: []byte{4, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 7}})
		conn.Close()
		if err != nil {
			return err
		}
		done := make(chan error, 1)
		go func() { done <- runServer(o) }()
		if err := serverUp(o.journal, 1); err != nil {
			return err
		}
		startClients()
		return <-done
	})
	for id, sums := range got {
		if !sameBits(sums, want) {
			t.Fatalf("client%d decrypted %v, want %v", id, sums, want)
		}
	}
}

// TestServerFailpointSweep kills the TCP-hosted coordinator right after each
// journal boundary a crash can land on — round-start durable and nothing
// gathered, aggregate durable and nothing broadcast, round-done durable and
// the round over — flat and through a fan-out-2 tree, restarts it with
// -resume, and demands what every client decrypts be bit-identical to an
// uninterrupted run.
func TestServerFailpointSweep(t *testing.T) {
	for _, boundary := range []fl.EventKind{fl.EventRoundStart, fl.EventAggregated, fl.EventRoundDone} {
		for _, fanout := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/fanout%d", boundary, fanout), func(t *testing.T) {
				o := opts{keyBits: 128, seed: 9, fanout: fanout}
				want := inProcessRound(t, o, sweepVals)
				o.journal = filepath.Join(t.TempDir(), "round.journal")
				got := tcpRound(t, o, sweepVals, func(o opts, startClients func()) error {
					crash, resumed := o, o
					crash.failpoint, resumed.resume = string(boundary), true
					// The later boundaries need the uploads: the clients start
					// with the doomed server, and after an aggregate they are
					// still waiting for the broadcast when the resumed one
					// sends it; after round-done they have it, and the resumed
					// server finds the round complete. A server that dies at
					// round-start has gathered nothing, and the clients of
					// this test start once its successor is up.
					if boundary != fl.EventRoundStart {
						startClients()
					}
					if err := runServer(crash); !errors.Is(err, fl.ErrCoordinatorCrash) {
						return fmt.Errorf("failpoint run returned %v", err)
					}
					done := make(chan error, 1)
					go func() { done <- runServer(resumed) }()
					if err := serverUp(o.journal, 2); err != nil {
						return err
					}
					startClients()
					return <-done
				})
				for id, sums := range got {
					if !sameBits(sums, want) {
						t.Fatalf("client%d decrypted %v after recovery, an uninterrupted round %v", id, sums, want)
					}
				}
				state := replayJournal(t, o.journal)
				if state.Completed != 1 || state.Resume != nil || state.Failed != 0 {
					t.Fatalf("recovered journal replayed wrong: %+v", state)
				}
			})
		}
	}
}
