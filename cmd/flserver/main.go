// Command flserver runs a networked secure-aggregation demo over real TCP:
// a hub process routes ciphertexts between client processes and an
// aggregation server, exercising the Fig. 2 protocol end to end on the
// loopback (or a real LAN).
//
// Usage:
//
//	flserver hub    -addr 127.0.0.1:9009
//	flserver server -addr 127.0.0.1:9009 -clients 4
//	flserver client -addr 127.0.0.1:9009 -id 0 -values 0.1,0.2,0.3
//	flserver demo   -clients 4 -dim 8        (all roles in one process)
//
// Degraded modes (see DESIGN.md, "Fault model & degraded modes"):
//
//	-quorum k     server proceeds once k uploads arrive (0 = wait for all)
//	-timeout d    gather deadline; with -quorum the server drops stragglers
//	              still missing at expiry instead of stalling
//	-straggle d   client delays its upload by d (in demo mode: client 0),
//	              simulating a slow participant
//	-devices n    every party shards its vector HE ops across n simulated
//	              devices with work stealing under device faults; results
//	              are bit-exact at every n (0 and 1 are the same one-device
//	              set)
//	-trace file   write a Chrome trace-event JSON of the party's sim-time
//	              spans on exit, plus a metrics text dump to stdout (demo
//	              mode shares one trace across the in-process parties)
//
// Cross-device scale (see DESIGN.md, "Cross-device scale"):
//
//	-cohort k     sample k of -clients for the round; every party derives
//	              the same cohort from -seed, and an unsampled client skips
//	              its upload but still receives the broadcast
//	-fanout f     server models a fan-out-f aggregation tree: interior
//	              aggregators sum their children's uploads and forward one
//	              partial each, a charged frame (0 = flat: the server folds
//	              every upload itself; either way an upload is folded as it
//	              arrives)
//
// Out-of-range and inconsistent flags (a negative -timeout or -straggle, a
// quorum above the sampled cohort, a fan-out of 1, a -bits below 32 or odd, a
// -failpoint or -resume without -journal, a -failpoint that names no journal
// record) fail at startup with a typed ConfigError naming the flag, not
// mid-round.
//
// Durability (see DESIGN.md, "Durable epochs"):
//
//	-journal f    server: append round state to a write-ahead journal file
//	-resume       server: replay -journal on startup and resume the round
//	              from the last safe boundary (or exit 0 if already done)
//	-failpoint s  server: crash right after the named journal record is durable
//	              (testing only): round-start, aggregated, round-done,
//	              round-failed, drained
//
// The first SIGINT/SIGTERM starts a graceful drain: a server with quorum
// met finishes the round; below quorum it journals the abandoned round and
// exits zero. A second signal aborts hard with a nonzero status.
//
// All parties derive the same demo key pair from -seed; in production each
// deployment would provision keys through its own PKI.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"flbooster/internal/fl"
	"flbooster/internal/flnet"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
	"flbooster/internal/obs"
	"flbooster/internal/quant"
)

// demoRound stamps every message of the single demo round so late traffic
// from a previous run is discarded rather than aggregated.
const demoRound = 1

// The server and client roles are thin hosts of fl.Coordinator and fl.Client
// over a TCP connection: flags → fl.Profile, dial, run the machine, print the
// report. The round itself — gather, quorum, deadline, drain, journal, resume,
// broadcast, the K-prefixed aggregate frame — is the code fl.Federation runs
// in-process.

func main() {
	// First SIGINT/SIGTERM starts the graceful drain; a second one means the
	// operator wants out now — a dirty stop, and the only path that exits
	// nonzero without an actual error.
	stop := make(chan struct{})
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		close(stop)
		<-sig
		fmt.Fprintln(os.Stderr, "flserver: second signal, aborting")
		os.Exit(1)
	}()
	if err := run(os.Args[1:], stop); err != nil {
		fmt.Fprintln(os.Stderr, "flserver:", err)
		os.Exit(1)
	}
}

// opts is one party's configuration, parsed from the flags every role shares;
// the zero value of each optional field disables it. All parties of a round
// must be started with the same -clients, -bits, -seed and -cohort: each
// derives the same fl.Profile from them.
type opts struct {
	addr    string
	clients int
	keyBits int
	seed    uint64
	// id, vals and straggle are a client's: who it is, its gradient vector,
	// and a delay before its upload (demo mode: client 0's; dim sizes the
	// vectors the demo draws).
	id       int
	vals     []float64
	straggle time.Duration
	dim      int
	// quorum and timeout select the server's degraded gather mode: proceed
	// once quorum uploads are in and the deadline passed (see DESIGN.md).
	quorum  int
	timeout time.Duration
	// devices sizes the simulated fleet the party's vector HE ops are sharded
	// across; 0 and 1 are the same one-device fleet.
	devices int
	// journal appends the server's round state to this write-ahead file;
	// resume replays it on startup and picks the round up from the last safe
	// boundary; failpoint crashes the server right after the named journal
	// record (an fl.EventKind) is durable. Testing only.
	journal   string
	resume    bool
	failpoint string
	// cohort > 0 samples that many of the registered clients for the round
	// (the same seeded draw every party derives; an unsampled client skips its
	// upload but still waits for the broadcast); fanout ≥ 2 models interior
	// aggregators whose forwards are charged frames, 0 is the flat fold.
	cohort int
	fanout int
	// stop is the graceful-drain signal (SIGINT/SIGTERM in main): with
	// quorum met the server finishes the round; below quorum it journals
	// the abandoned round and exits cleanly.
	stop <-chan struct{}
	o    *obs.Obs
}

func run(args []string, stop <-chan struct{}) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: flserver <hub|server|client|demo> [flags]")
	}
	cmd := args[0]
	o := opts{stop: stop}
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:9009", "hub address")
	fs.IntVar(&o.clients, "clients", 4, "number of clients")
	fs.IntVar(&o.id, "id", 0, "client id")
	fs.IntVar(&o.keyBits, "bits", 256, "Paillier key size")
	fs.Uint64Var(&o.seed, "seed", 1, "shared demo seed")
	values := fs.String("values", "", "comma-separated gradient values")
	fs.IntVar(&o.dim, "dim", 8, "gradient dimension for demo mode")
	fs.IntVar(&o.quorum, "quorum", 0, "uploads needed to proceed (0 = all clients)")
	fs.DurationVar(&o.timeout, "timeout", 0, "gather deadline (0 = wait forever)")
	fs.DurationVar(&o.straggle, "straggle", 0, "delay this client's upload (demo: client 0)")
	fs.IntVar(&o.devices, "devices", 0, "shard vector HE ops across this many simulated devices (0 and 1: one device)")
	trace := fs.String("trace", "", "write Chrome trace-event JSON of sim-time spans to this file on exit")
	fs.StringVar(&o.journal, "journal", "", "server: write-ahead round journal file (empty = no journal)")
	fs.BoolVar(&o.resume, "resume", false, "server: replay -journal and resume from the last safe boundary")
	fs.StringVar(&o.failpoint, "failpoint", "", "server: crash after this journal record is durable (testing; e.g. \"aggregated\")")
	fs.IntVar(&o.cohort, "cohort", 0, "sample this many of -clients per round (0 = everyone; derived from -seed)")
	fs.IntVar(&o.fanout, "fanout", 0, "server: model an aggregation tree of this fan-out, its interior forwards charged frames (0 = flat)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if err := o.validate(cmd); err != nil {
		return err
	}
	if *trace != "" {
		o.o = obs.New(o.seed)
	}

	var err error
	switch cmd {
	case "hub":
		hub, herr := flnet.NewTCPHub(o.addr)
		if herr != nil {
			return herr
		}
		fmt.Println("hub listening on", hub.Addr())
		<-stop // route until the drain signal, then close cleanly; a nil stop routes until killed
		return hub.Close()
	case "server":
		err = runServer(o)
	case "client":
		if o.vals, err = parseFloats(*values); err == nil {
			err = runClient(o)
		}
	case "demo":
		err = runDemo(o)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		return err
	}
	return writeObs(o.o, *trace)
}

// writeObs dumps the bundle on exit: the span trace to path and the metrics
// registry to stdout. No-op when tracing is off.
func writeObs(o *obs.Obs, path string) error {
	if o == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := o.Recorder().WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d sim-time spans to %s\nmetrics:\n", o.Recorder().Len(), path)
	return o.Metrics().WriteText(os.Stdout)
}

// context builds the HE context every party of the round derives from the
// shared flags: flags → fl.Profile, one profile for server and clients alike
// (each machine reads the policies that concern it). With an observability
// bundle the context traces and meters under the party's label (demo mode
// passes one bundle to every in-process party).
func (o opts) context(label string) (*fl.Context, error) {
	p := fl.NewProfile(fl.SystemFLBooster, o.keyBits, o.clients)
	p.Seed = o.seed
	p.Device = gpu.RTX3090()
	p.Devices = o.devices
	p.Cohort = fl.CohortPolicy{Size: o.cohort, Fanout: o.fanout}
	p.Round = fl.RoundPolicy{Quorum: o.quorum, PhaseTimeout: o.timeout}
	ctx, err := fl.NewContext(p)
	if err != nil {
		return nil, err
	}
	if o.o != nil {
		ctx.AttachObs(o.o, label)
	}
	return ctx, nil
}

// runServer hosts one fl.Coordinator for the demo round.
func runServer(o opts) error {
	ctx, err := o.context(fl.ServerName)
	if err != nil {
		return err
	}
	defer ctx.PublishMetrics()

	coord := fl.NewCoordinator(ctx)
	if o.journal != "" {
		store, err := fl.OpenFileStore(o.journal)
		if err != nil {
			return err
		}
		defer store.Close()
		if o.resume {
			var state *fl.RecoveryState
			if coord, state, err = fl.RecoverCoordinator(ctx, store); err != nil {
				return err
			}
			if state.Completed > 0 {
				fmt.Printf("journal %s: round %d already complete (digest %016x)\n",
					o.journal, demoRound, state.Digests[demoRound])
				return nil
			}
			if rp := state.Resume; rp != nil {
				fmt.Printf("journal %s: resuming round %d attempt %d at the %s boundary\n",
					o.journal, rp.Round, rp.Attempt+1, rp.Phase)
			}
		} else {
			jr, err := fl.NewJournal(store)
			if err != nil {
				return err
			}
			coord.AttachJournal(jr)
		}
		if kind := fl.EventKind(o.failpoint); slices.Contains(failpoints, kind) {
			coord.Journal().Fail = func(rec fl.JournalRecord) error {
				if rec.Kind != kind {
					return nil
				}
				return fmt.Errorf("failpoint %q: %w after the record was journaled", o.failpoint, fl.ErrCoordinatorCrash)
			}
		}
	}

	// The cohort is the same pure seeded draw every client derives, so no
	// scheduling message is needed: unsampled clients simply skip the upload.
	names := fl.ClientNames(o.clients)
	sched := ctx.Profile.Schedule(names, demoRound)
	if sched.Sampled() {
		fmt.Printf("sampled cohort of %d/%d clients: %v\n", len(sched.Cohort), o.clients, sched.Cohort)
	}
	conn, err := flnet.DialHub(o.addr, fl.ServerName)
	if err != nil {
		return err
	}
	defer conn.Close()
	fmt.Printf("server up: %d-bit key, host arithmetic %s, waiting for %d clients (quorum %d)\n",
		o.keyBits, mpint.KernelName(), len(sched.Cohort), ctx.Profile.Round.EffectiveQuorum(len(sched.Cohort)))

	// Every registered client receives the broadcast — stragglers and
	// unsampled processes included, so each of them still terminates.
	rd, err := coord.Begin(sched, conn)
	if rd == nil {
		return err
	}
	if err == nil {
		err = rd.Serve(names, o.stop)
	}
	err = rd.Finish(err)
	rep := rd.Report()
	for name, phase := range rep.Dropped {
		fmt.Printf("dropping %s (lost in the %s phase)\n", name, phase)
	}
	if errors.Is(err, fl.ErrDrained) {
		// Graceful drain below quorum: the abandoned round is journaled and the
		// exit is clean — a restart with -resume re-runs the round from the top.
		fmt.Printf("drain signal with %d/%d uploads: abandoning the round\n", len(rep.Included), rep.CohortSize)
		return nil
	}
	if err != nil {
		return err
	}
	if ts := rep.Tree; ts != nil {
		fmt.Printf("aggregated %d uploads: %d HE folds at tree depth %d, peak %d live ciphertexts\n",
			len(rep.Included), ts.Folds, ts.Depth, rep.PeakLiveCts)
	}
	if rep.Stale+rep.Duplicates > 0 {
		fmt.Printf("discarded %d stale and %d duplicate or unsampled frames\n", rep.Stale, rep.Duplicates)
	}
	fmt.Printf("aggregated %d/%d uploads and broadcast the %d-byte aggregate\n", len(rep.Included), o.clients, len(rd.Frame()))
	return nil
}

func runClient(o opts) error {
	_, err := clientRound(o)
	return err
}

// clientRound hosts one fl.Client for the demo round and returns what it
// decrypted.
func clientRound(o opts) ([]float64, error) {
	ctx, err := o.context(fl.ClientName(o.id))
	if err != nil {
		return nil, err
	}
	defer ctx.PublishMetrics()
	cl := fl.NewClient(ctx, o.id)
	name := cl.Name
	conn, err := flnet.DialHub(o.addr, name)
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	sched := ctx.Profile.Schedule(fl.ClientNames(o.clients), demoRound)
	if !sched.Scheduled(name) {
		fmt.Printf("%s not sampled this round: skipping upload, awaiting the broadcast\n", name)
	} else {
		if o.straggle > 0 {
			fmt.Printf("%s straggling for %v before upload\n", name, o.straggle)
			time.Sleep(o.straggle)
		}
		n, err := cl.Upload(conn, demoRound, o.vals)
		if err != nil {
			return nil, err
		}
		fmt.Printf("%s sent %d ciphertexts (%d gradients)\n", name, n, len(o.vals))
	}

	// A remote client learns only K from the frame, not who contributed, so
	// it opens without the K cross-check.
	frame, _, err := cl.Receive(conn, demoRound, time.Time{})
	if err != nil {
		return nil, err
	}
	sums, k, err := cl.Open(frame, len(o.vals), nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	switch {
	case k < o.clients:
		// Quorum aggregate: Open rescaled the K-party sum to a full-federation
		// estimate, like every fl round.
		fmt.Printf("%s decrypted %d-of-%d aggregate (scaled x%.2f): %v\n", name, k, o.clients, float64(o.clients)/float64(k), sums)
	default:
		fmt.Printf("%s decrypted aggregate: %v\n", name, sums)
	}
	return sums, nil
}

// runDemo runs hub, server, and clients in one process over loopback TCP.
// With straggle > 0, client 0 delays its upload; combined with -quorum and
// -timeout this demonstrates the round completing without it.
func runDemo(o opts) error {
	hub, err := flnet.NewTCPHub("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer hub.Close()
	fmt.Println("demo hub on", hub.Addr())

	o.addr = hub.Addr()
	errs := make(chan error, o.clients+1)
	go func() { errs <- runServer(o) }()

	rng := mpint.NewRNG(o.seed)
	want := make([]float64, o.dim)
	for c := 0; c < o.clients; c++ {
		party := o
		party.id, party.vals = c, make([]float64, o.dim)
		for i := range party.vals {
			party.vals[i] = rng.Float64()*0.5 - 0.25
			want[i] += party.vals[i]
		}
		if c > 0 {
			party.straggle = 0
		}
		go func() { errs <- runClient(party) }()
	}
	for i := 0; i < o.clients+1; i++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	fmt.Printf("expected full-federation sums (all honest): %v\n", want)
	bytes, msgs, _ := hub.Meter().Snapshot()
	fmt.Printf("hub traffic: %d bytes across %d messages\n", bytes, msgs)
	if o.o != nil {
		hub.Meter().Publish(o.o.Metrics(), "net.hub")
		o.o.Metrics().Set("net.hub.spoofed", hub.Spoofed())
		o.o.Metrics().Set("net.hub.dropped", hub.Dropped())
	}
	return nil
}

func parseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, fmt.Errorf("no -values given")
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err == nil && math.IsNaN(v) {
			err = quant.ErrNaN
		}
		if err != nil {
			return nil, fmt.Errorf("value %q: %w", p, err)
		}
		out[i] = v
	}
	return out, nil
}
