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
	for _, args := range [][]string{
		{"-scale", "-1", "table2"}, {"-scale", "0", "table2"}, {"-scale", "NaN", "-keys", "128", "table2"},
		{"-parties", "0", "table2"}, {"-parties", "-2", "table2"},
		{"-epochs", "0", "table2"}, {"-epochs", "-1", "table2"},
		{"-batch", "0", "table2"}, {"-batch", "-3", "table2"},
	} {
		if err := run(args); err == nil {
			t.Errorf("flbench %v should fail, not fall back to the default", args)
		}
	}
	if err := run([]string{"-chunk", "2", "table3"}); err == nil {
		t.Fatal("the retired -chunk flag should fail as unknown")
	}
	if err := run([]string{"-devices", "2", "table2"}); err == nil {
		t.Fatal("the retired -devices flag should fail as unknown")
	}
	if err := run([]string{"soak"}); err == nil {
		t.Fatal("a retired side experiment should fail as unknown")
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

// runCaptured is run with os.Stdout redirected into a string; it fails the
// test if run does.
func runCaptured(t *testing.T, args ...string) string {
	t.Helper()
	text, err := capture(t, args...)
	if err != nil {
		t.Fatalf("flbench %s: %v", strings.Join(args, " "), err)
	}
	return text
}

// capture is run with os.Stdout redirected into a string, and run's error.
func capture(t *testing.T, args ...string) (string, error) {
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
	return <-out, runErr
}

// TestUnknownExperimentFailsBeforeAnyRuns: every name is checked before the
// first experiment runs, so a typo after a valid name prints nothing — not
// the header, not the valid name's table — and the error names the typo and
// what there is to choose from.
func TestUnknownExperimentFailsBeforeAnyRuns(t *testing.T) {
	text, err := capture(t, "-keys", "128", "table2", "tabel7")
	if err == nil || !strings.Contains(err.Error(), `"tabel7"`) || !strings.Contains(err.Error(), "table7 ablation all") {
		t.Fatalf("flbench table2 tabel7: error %v, want the unknown name and the choices", err)
	}
	if text != "" {
		t.Fatalf("flbench table2 tabel7 printed %q before failing", text)
	}
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
