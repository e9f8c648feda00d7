package main

import (
	"io"
	"os"
	"strconv"
	"strings"
	"testing"

	"flbooster/internal/mpint"
)

func TestRunKeygen(t *testing.T) {
	if err := run([]string{"keygen", "-bits", "128", "-seed", "7"}); err != nil {
		t.Fatal(err)
	}
}

// stdout is what run prints for args.
func stdout(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	err = run(args)
	os.Stdout = saved
	w.Close()
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestKeygenIsAFunctionOfTheSeed: -seed fixes the generated key (it used to
// depend on which device thread found a prime first), the key has the size
// -bits asks for (n used to come out a bit short on about half the seeds), and
// a size no key can have is an error, not a key of another size.
func TestKeygenIsAFunctionOfTheSeed(t *testing.T) {
	first := stdout(t, "keygen", "-bits", "256", "-seed", "7")
	if !strings.Contains(first, "key size : 256 bits\nn        : ") {
		t.Fatalf("keygen -bits 256 printed:\n%s", first)
	}
	if again := stdout(t, "keygen", "-bits", "256", "-seed", "7"); again != first {
		t.Fatalf("keygen -bits 256 -seed 7 printed two keys:\n%s\n%s", first, again)
	}
	if other := stdout(t, "keygen", "-bits", "256", "-seed", "8"); other == first {
		t.Fatal("seeds 7 and 8 generated one key")
	}
	for seed := 1; seed <= 8; seed++ {
		if out := stdout(t, "keygen", "-bits", "128", "-seed", strconv.Itoa(seed)); !strings.HasPrefix(out, "key size : 128 bits\n") {
			t.Fatalf("keygen -bits 128 -seed %d printed:\n%s", seed, out)
		}
	}
	for _, bits := range []string{"129", "14"} {
		if err := run([]string{"keygen", "-bits", bits, "-seed", "1"}); err == nil {
			t.Errorf("keygen -bits %s should fail", bits)
		}
	}
}

// TestRunBench: the table is Table I's 16 ops in one row each, printed only
// once every element of every op matched the host loop; mod_inv, a host loop
// itself, is the one op with no device reading.
func TestRunBench(t *testing.T) {
	out := stdout(t, "bench", "-bits", "128", "-seed", "7", "-n", "8")
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	want := []string{
		"paillier key_gen", "paillier encrypt", "paillier decrypt", "paillier add",
		"rsa key_gen", "rsa encrypt", "rsa decrypt", "rsa mul",
		"add", "sub", "mul", "div", "mod", "mod_inv", "mod_mul", "mod_pow",
	}
	if len(lines) != 2+len(want) || !strings.HasPrefix(lines[0], "Table I at 128-bit keys, 8 operands an op") {
		t.Fatalf("bench printed:\n%s", out)
	}
	for i, name := range want {
		f := strings.Fields(strings.TrimPrefix(lines[2+i], name))
		if !strings.HasPrefix(lines[2+i], name+" ") || len(f) != 3 {
			t.Fatalf("row %d is %q, want op %q", i, lines[2+i], name)
		}
		count := "8"
		if strings.HasSuffix(name, "key_gen") {
			count = "1"
		}
		if f[0] != count || (f[2] == "host") != (name == "mod_inv") {
			t.Errorf("row %q: want %s results and a device reading unless it is mod_inv", lines[2+i], count)
		}
	}
}

// TestBenchRejectsNonPositiveN: -n sizes the operand vectors, so a negative one
// used to panic in make and zero printed a table of 0/s rows.
func TestBenchRejectsNonPositiveN(t *testing.T) {
	for _, n := range []string{"-1", "0"} {
		if err := run([]string{"bench", "-bits", "128", "-seed", "7", "-n", n}); err == nil || !strings.Contains(err.Error(), "invalid -n") {
			t.Errorf("bench -n %s: %v, want a flag error", n, err)
		}
	}
}

// TestCheckNamesOpAndElement: a result that differs from the host loop's is an
// error naming the op and the first element that differs.
func TestCheckNamesOpAndElement(t *testing.T) {
	o := op{name: "add", count: 3, got: at([]mpint.Nat{mpint.FromUint64(0), mpint.FromUint64(1), mpint.FromUint64(3)}),
		want: func(i int) mpint.Nat { return mpint.FromUint64(uint64(i)) }}
	if err := o.check(); err == nil || err.Error() != "add: element 2 is 3, the host loop gives 2" {
		t.Errorf("check = %v, want add's element 2", err)
	}
	if o.count = 2; o.check() != nil {
		t.Errorf("the first two elements match, yet: %v", o.check())
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no command should fail")
	}
	for _, cmd := range []string{"nope", "encrypt", "add"} {
		if err := run([]string{cmd}); err == nil {
			t.Errorf("unknown command %q should fail", cmd)
		}
	}
}
