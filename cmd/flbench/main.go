// Command flbench regenerates every table and figure of the FLBooster
// paper's evaluation section. Each experiment prints rows in the paper's
// layout, measured at a configurable dataset scale and key-size sweep.
//
// Usage:
//
//	flbench [flags] <experiment>...
//
// Experiments: table2 fig1 table3 table4 fig6 table5 fig7 table6 fig8 table7
// ablation all
//
// Flags:
//
//	-scale f      dataset scale factor in (0, 1]        (default 0.0004)
//	-keys list    comma-separated key sizes in bits     (default 256,512)
//	-parties n    number of federated participants      (default 4)
//	-epochs n     epochs for convergence experiments    (default 3)
//	-batch n      SGD minibatch size                    (default 64)
//	-seed n       PRNG seed for workloads and keys      (default 1)
//	-trace file   write a Chrome trace-event JSON of the run's sim-time spans
//	              (load in Perfetto / chrome://tracing)
//	-metrics file write the metrics registry as text ("-" = stdout)
//	-paper        use the paper's full-scale parameters (slow)
//
// Either observability flag turns tracing/metrics on; after every experiment
// the harness publishes each context's counters into the registry.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"flbooster/internal/bench"
	"flbooster/internal/mpint"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "flbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("flbench", flag.ContinueOnError)
	scale := fs.Float64("scale", 0, "dataset scale factor in (0, 1]")
	keys := fs.String("keys", "", "comma-separated key sizes in bits")
	parties := fs.Int("parties", 0, "number of federated participants")
	epochs := fs.Int("epochs", 0, "epochs for convergence experiments")
	batch := fs.Int("batch", 0, "SGD minibatch size")
	seed := fs.Uint64("seed", 1, "PRNG seed for workloads and keys")
	trace := fs.String("trace", "", "write Chrome trace-event JSON of sim-time spans to this file")
	metrics := fs.String("metrics", "", "write the metrics registry as text to this file (\"-\" = stdout)")
	paper := fs.Bool("paper", false, "use the paper's full-scale parameters")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := bench.Quick()
	if *paper {
		cfg = bench.Paper()
	}
	// Every flag the command line set overrides the profile, so a value
	// out of range reaches Config.Validate instead of falling back.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "scale":
			cfg.Scale = *scale
		case "parties":
			cfg.Parties = *parties
		case "epochs":
			cfg.Epochs = *epochs
		case "batch":
			cfg.BatchSize = *batch
		}
	})
	if *keys != "" {
		cfg.KeyBits = nil
		for _, part := range strings.Split(*keys, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("invalid -keys element %q: %w", part, err)
			}
			cfg.KeyBits = append(cfg.KeyBits, k)
		}
	}
	cfg.Seed = *seed
	cfg.Observe = *trace != "" || *metrics != ""

	exps := fs.Args()
	if len(exps) == 0 {
		return fmt.Errorf("no experiment named; choose from table2 fig1 table3 table4 fig6 table5 fig7 table6 fig8 table7 ablation all")
	}
	r, err := bench.NewRunner(cfg)
	if err != nil {
		return err
	}
	// Which kernels produced the host-clock columns of what follows; the
	// modelled columns do not depend on them.
	fmt.Printf("host arithmetic: %s\n\n", mpint.KernelName())
	for _, e := range exps {
		var err error
		switch e {
		case "table2":
			err = r.Table2(os.Stdout)
		case "fig1":
			err = r.Fig1(os.Stdout)
		case "table3":
			err = r.Table3(os.Stdout)
		case "table4":
			err = r.Table4(os.Stdout)
		case "fig6":
			err = r.Fig6(os.Stdout)
		case "table5":
			err = r.Table5(os.Stdout)
		case "fig7":
			err = r.Fig7(os.Stdout)
		case "table6":
			err = r.Table6(os.Stdout)
		case "fig8":
			err = r.Fig8(os.Stdout)
		case "table7":
			err = r.Table7(os.Stdout)
		case "ablation":
			err = r.Ablation(os.Stdout)
		case "all":
			err = r.All(os.Stdout)
		default:
			err = fmt.Errorf("unknown experiment %q", e)
		}
		if err != nil {
			return err
		}
		r.PublishMetrics()
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			return err
		}
		if err := r.Obs().Recorder().WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d sim-time spans to %s\n", r.Obs().Recorder().Len(), *trace)
	}
	if *metrics != "" {
		out := os.Stdout
		if *metrics != "-" {
			f, err := os.Create(*metrics)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		if err := r.Obs().Metrics().WriteText(out); err != nil {
			return err
		}
	}
	return nil
}
