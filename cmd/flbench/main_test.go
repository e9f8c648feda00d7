package main

import "testing"

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
