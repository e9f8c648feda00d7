package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"flbooster/internal/mpint"
)

func TestRunFlagAndArgErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no experiment should fail")
	}
	if err := run([]string{"unknown-exp"}); err == nil {
		t.Fatal("unknown experiment should fail")
	}
	if err := run([]string{"-keys", "abc", "fig7"}); err == nil {
		t.Fatal("bad -keys should fail")
	}
	if err := run([]string{"-scale", "5", "fig7"}); err == nil {
		t.Fatal("out-of-range scale should fail")
	}
	if err := run([]string{"-chunk", "2", "table3"}); err == nil {
		t.Fatal("the retired -chunk flag should fail as unknown")
	}
}

func TestRunFig7Micro(t *testing.T) {
	// The cheapest real experiment at micro scale exercises the full
	// dispatch path.
	err := run([]string{"-scale", "0.0002", "-keys", "128", "-epochs", "1", "-batch", "16", "fig7"})
	if err != nil {
		t.Fatal(err)
	}
}

// runCaptured is run with os.Stdout redirected into a string.
func runCaptured(t *testing.T, args ...string) string {
	t.Helper()
	rd, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = wr
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(rd) // a short read shows up as a failed comparison
		out <- string(b)
	}()
	runErr := run(args)
	os.Stdout = stdout
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
	text := <-out
	if runErr != nil {
		t.Fatalf("flbench %s: %v", strings.Join(args, " "), runErr)
	}
	return text
}

// TestHeaderNamesHostKernels: a host-clock figure is only comparable with
// another produced by the same arithmetic kernels, so the first line of every
// run says which ones this host selected.
func TestHeaderNamesHostKernels(t *testing.T) {
	text := runCaptured(t, "-keys", "128", "table2")
	if want := "host arithmetic: " + mpint.KernelName() + "\n"; !strings.HasPrefix(text, want) {
		t.Fatalf("output starts %q, want %q", strings.SplitN(text, "\n", 2)[0], want)
	}
}

// TestAblationAtEveryDeviceCount: Ablation B reads one device's stream clock,
// so it runs on a one-device context whatever -devices says and prints the
// same block at every value. (-devices 1 used to dereference the nil
// Context.Device of a device-set context and panic.)
func TestAblationAtEveryDeviceCount(t *testing.T) {
	block := func(devices string) string {
		text := runCaptured(t, "-keys", "128", "-epochs", "1", "-devices", devices, "ablation")
		from, to := strings.Index(text, "Ablation B"), strings.Index(text, "Ablation C")
		if from < 0 || to < from {
			t.Fatalf("-devices %s: no Ablation B block in\n%s", devices, text)
		}
		return text[from:to]
	}
	want := block("0")
	if !strings.Contains(want, "128") || !strings.Contains(want, "x\n") {
		t.Fatalf("Ablation B printed no row:\n%s", want)
	}
	for _, devices := range []string{"1", "2"} {
		if got := block(devices); got != want {
			t.Errorf("-devices %s prints\n%s\nwant the -devices 0 block\n%s", devices, got, want)
		}
	}
}
