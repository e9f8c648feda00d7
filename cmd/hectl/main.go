// Command hectl drives FLBooster's Table-I API layer from the shell, on the
// simulated GPU.
//
// Usage:
//
//	hectl keygen -bits 512 -seed 7
//	hectl bench  -bits 512 -seed 7 -n 1024
//
// keygen prints a Paillier key's components. bench is the Table I table: it
// runs each of the 16 ops once over -n operands, checks every element against
// the host loop, and prints one row an op with its wall throughput and its
// modelled device throughput ("host" for an op that launches nothing). A
// mismatch is an error naming the op and the element.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"flbooster"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
	"flbooster/internal/rsa"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hectl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: hectl <keygen|bench> [flags]")
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	bits := fs.Int("bits", 512, "key size in bits")
	seed := fs.Uint64("seed", uint64(time.Now().UnixNano()), "PRNG seed (defaults to time)")
	n := fs.Int("n", 1024, "operands per op for bench")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *n < 1 {
		return fmt.Errorf("invalid -n %d: want at least one operand", *n)
	}
	plat := flbooster.NewPlatform(*seed)

	switch cmd {
	case "keygen":
		sk, err := plat.PaillierKeyGen(*bits)
		if err != nil {
			return err
		}
		fmt.Printf("key size : %d bits\n", sk.KeyBits())
		fmt.Printf("n        : %s\n", sk.N)
		fmt.Printf("g        : %s\n", sk.G)
		fmt.Printf("p        : %s\n", sk.P)
		fmt.Printf("q        : %s\n", sk.Q)
		fmt.Printf("lambda   : %s\n", sk.Lambda)
		return nil
	case "bench":
		return bench(plat, *bits, *n, mpint.NewRNG(*seed))
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// op is one Table I op of the table: run makes its one platform call over
// count operands; got and want read element i of that call's result and of
// the host loop's.
type op struct {
	name      string
	count     int
	run       func() error
	got, want func(i int) mpint.Nat
}

// bench runs the Table I ops in turn, each timed on the wall and the modelled
// device clocks, then checked off the clock, and prints its row once checked.
// The key generators come first: their keys are the other ops' moduli.
func bench(p *flbooster.Platform, bits, n int, rng *mpint.RNG) error {
	if err := mpint.CheckKeyBits(bits); err != nil {
		return err
	}
	// x and y, of bits−1 bits, are below either key's n, whose top bit is set;
	// u, of bits/2−1, below its prime p. None is 0.
	x, y, u := make([]mpint.Nat, n), make([]mpint.Nat, n), make([]mpint.Nat, n)
	sum, prod := make([]mpint.Nat, n), make([]mpint.Nat, n)
	for i := range x {
		x[i], y[i], u[i] = rng.RandBits(bits-1), rng.RandBits(bits-1), rng.RandBits(bits/2-1)
		sum[i], prod[i] = mpint.Add(x[i], y[i]), mpint.Mul(x[i], y[i])
	}
	e := rng.RandBits(bits)
	var (
		sk     *paillier.PrivateKey
		rk     *rsa.PrivateKey
		cx, cs []paillier.Ciphertext
		rc, rs []rsa.Ciphertext
		out    []mpint.Nat // the last op's plaintext result
	)
	vec := func(name string, f func() ([]mpint.Nat, error), want func(i int) mpint.Nat) op {
		return op{name, n, func() (err error) { out, err = f(); return err }, func(i int) mpint.Nat { return out[i] }, want}
	}
	ops := []op{
		{"paillier key_gen", 1, func() (err error) { sk, err = p.PaillierKeyGen(bits); return err },
			func(int) mpint.Nat { return sk.N }, func(int) mpint.Nat { return modulus(sk.P, sk.Q, bits) }},
		{"paillier encrypt", n, func() (err error) { cx, err = p.PaillierEncrypt(&sk.PublicKey, x); return err },
			func(i int) mpint.Nat { m, _ := sk.Decrypt(cx[i]); return m }, at(x)}, // a ciphertext Decrypt rejects reads 0
		vec("paillier decrypt", func() ([]mpint.Nat, error) { return p.PaillierDecrypt(sk, cx) }, at(x)),
		{"paillier add", n, func() (err error) { cs, err = p.PaillierAdd(&sk.PublicKey, cx, cx); return err },
			func(i int) mpint.Nat { return cs[i].C }, func(i int) mpint.Nat { return sk.Add(cx[i], cx[i]).C }},
		{"rsa key_gen", 1, func() (err error) { rk, err = p.RSAKeyGen(bits); return err },
			func(int) mpint.Nat { return rk.N }, func(int) mpint.Nat { return modulus(rk.P, rk.Q, bits) }},
		{"rsa encrypt", n, func() (err error) { rc, err = p.RSAEncrypt(&rk.PublicKey, x); return err },
			func(i int) mpint.Nat { return rc[i].C }, func(i int) mpint.Nat { return mpint.ModExp(x[i], rk.E, rk.N) }},
		vec("rsa decrypt", func() ([]mpint.Nat, error) { return p.RSADecrypt(rk, rc) }, at(x)),
		{"rsa mul", n, func() (err error) { rs, err = p.RSAMul(&rk.PublicKey, rc, rc); return err },
			func(i int) mpint.Nat { return rs[i].C }, func(i int) mpint.Nat { return mpint.ModMul(rc[i].C, rc[i].C, rk.N) }},
		vec("add", func() ([]mpint.Nat, error) { return p.Add(x, y) }, at(sum)),
		vec("sub", func() ([]mpint.Nat, error) { return p.Sub(sum, y) }, func(i int) mpint.Nat { return mpint.Sub(sum[i], y[i]) }),
		vec("mul", func() ([]mpint.Nat, error) { return p.Mul(x, y) }, at(prod)),
		vec("div", func() ([]mpint.Nat, error) { return p.Div(prod, u) }, func(i int) mpint.Nat { return mpint.Div(prod[i], u[i]) }),
		vec("mod", func() ([]mpint.Nat, error) { return p.Mod(prod, sk.N) }, func(i int) mpint.Nat { return mpint.Mod(prod[i], sk.N) }),
		vec("mod_inv", func() ([]mpint.Nat, error) { return p.ModInv(u, sk.P) }, func(i int) mpint.Nat { inv, _ := mpint.ModInverse(u[i], sk.P); return inv }),
		vec("mod_mul", func() ([]mpint.Nat, error) { return p.ModMul(x, y, sk.N) }, func(i int) mpint.Nat { return mpint.ModMul(x[i], y[i], sk.N) }),
		vec("mod_pow", func() ([]mpint.Nat, error) { return p.ModPow(x, e, sk.N) }, func(i int) mpint.Nat { return mpint.ModExp(x[i], e, sk.N) }),
	}
	fmt.Printf("Table I at %d-bit keys, %d operands an op, every element checked against the host loop (host arithmetic: %s)\n",
		bits, n, mpint.KernelName())
	fmt.Printf("%-18s %6s %12s %12s\n", "op", "n", "wall/s", "device/s")
	for _, o := range ops {
		before, start := p.Device().Stats(), time.Now()
		if err := o.run(); err != nil {
			return fmt.Errorf("%s: %w", o.name, err)
		}
		wall, after := time.Since(start), p.Device().Stats()
		if err := o.check(); err != nil {
			return err
		}
		device := "host"
		if after.KernelLaunches > before.KernelLaunches {
			device = fmt.Sprintf("%.4g", float64(o.count)/(after.SimTime()-before.SimTime()).Seconds())
		}
		fmt.Printf("%-18s %6d %12.4g %12s\n", o.name, o.count, float64(o.count)/wall.Seconds(), device)
	}
	return nil
}

// check holds the op's result to the host loop's, element by element.
func (o op) check() error {
	for i := 0; i < o.count; i++ {
		if g, w := o.got(i), o.want(i); mpint.Cmp(g, w) != 0 {
			return fmt.Errorf("%s: element %d is %s, the host loop gives %s", o.name, i, g, w)
		}
	}
	return nil
}

// at reads element i of xs.
func at(xs []mpint.Nat) func(i int) mpint.Nat { return func(i int) mpint.Nat { return xs[i] } }

// modulus is the n a key of `bits` bits on the primes p and q has: p·q, or 0,
// no key's n, when p·q is of another size.
func modulus(p, q mpint.Nat, bits int) mpint.Nat {
	if n := mpint.Mul(p, q); n.BitLen() == bits {
		return n
	}
	return nil
}
