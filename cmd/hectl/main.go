// Command hectl exercises FLBooster's Table-I HE APIs from the shell:
// key generation, encryption, decryption, and homomorphic addition on the
// simulated GPU.
//
// Usage:
//
//	hectl keygen  -bits 512 -seed 7
//	hectl encrypt -bits 256 -seed 7 12 34 56
//	hectl add     -bits 256 -seed 7 12 34
//	hectl bench   -bits 512 -n 1024
//
// keygen prints the key components; encrypt round-trips the arguments
// through encrypt→decrypt; add homomorphically sums the arguments two at a
// time; bench measures device encryption throughput.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"flbooster/internal/core"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hectl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: hectl <keygen|encrypt|add|bench> [flags] [values...]")
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	bits := fs.Int("bits", 512, "Paillier key size in bits")
	seed := fs.Uint64("seed", uint64(time.Now().UnixNano()), "PRNG seed (defaults to time)")
	n := fs.Int("n", 1024, "batch size for bench")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	plat := core.Default(*seed)

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

	case "encrypt":
		sk, vals, err := keyAndValues(plat, *bits, fs.Args())
		if err != nil {
			return err
		}
		cts, err := plat.PaillierEncrypt(&sk.PublicKey, vals)
		if err != nil {
			return err
		}
		dec, err := plat.PaillierDecrypt(sk, cts)
		if err != nil {
			return err
		}
		for i, v := range vals {
			fmt.Printf("m=%s  ->  E(m)=%s...  ->  D(E(m))=%s\n", v, prefix(cts[i].C.String(), 32), dec[i])
		}
		return nil

	case "add":
		sk, vals, err := keyAndValues(plat, *bits, fs.Args())
		if err != nil {
			return err
		}
		if len(vals)%2 != 0 {
			return fmt.Errorf("add needs an even number of values")
		}
		a := make([]mpint.Nat, len(vals)/2)
		b := make([]mpint.Nat, len(vals)/2)
		for i := range a {
			a[i], b[i] = vals[2*i], vals[2*i+1]
		}
		ca, err := plat.PaillierEncrypt(&sk.PublicKey, a)
		if err != nil {
			return err
		}
		cb, err := plat.PaillierEncrypt(&sk.PublicKey, b)
		if err != nil {
			return err
		}
		sums, err := plat.PaillierAdd(&sk.PublicKey, ca, cb)
		if err != nil {
			return err
		}
		dec, err := plat.PaillierDecrypt(sk, sums)
		if err != nil {
			return err
		}
		for i := range a {
			fmt.Printf("D(E(%s) * E(%s)) = %s\n", a[i], b[i], dec[i])
		}
		return nil

	case "bench":
		sk, err := plat.PaillierKeyGen(*bits)
		if err != nil {
			return err
		}
		rng := mpint.NewRNG(*seed)
		vals := make([]mpint.Nat, *n)
		for i := range vals {
			vals[i] = rng.RandBelow(sk.N)
		}
		start := time.Now()
		cts, err := plat.PaillierEncrypt(&sk.PublicKey, vals)
		if err != nil {
			return err
		}
		encDur := time.Since(start)
		start = time.Now()
		if _, err := plat.PaillierDecrypt(sk, cts); err != nil {
			return err
		}
		decDur := time.Since(start)
		st := plat.Device().Stats()
		fmt.Printf("host arithmetic   : %s\n", mpint.KernelName())
		fmt.Printf("batch             : %d values at %d-bit keys\n", *n, *bits)
		fmt.Printf("encrypt wall      : %v (%.0f/s)\n", encDur, float64(*n)/encDur.Seconds())
		fmt.Printf("decrypt wall      : %v (%.0f/s)\n", decDur, float64(*n)/decDur.Seconds())
		fmt.Printf("device sim time   : %v\n", st.SimTime())
		fmt.Printf("SM utilization    : %.1f%%\n", st.AvgUtilization()*100)
		return nil

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// keyAndValues generates a key and parses decimal plaintexts, validating
// range.
func keyAndValues(plat *core.Platform, bits int, raw []string) (*paillier.PrivateKey, []mpint.Nat, error) {
	if len(raw) == 0 {
		return nil, nil, fmt.Errorf("no values given")
	}
	sk, err := plat.PaillierKeyGen(bits)
	if err != nil {
		return nil, nil, err
	}
	vals := make([]mpint.Nat, len(raw))
	for i, s := range raw {
		v, err := mpint.ParseDecimal(s)
		if err != nil {
			return nil, nil, fmt.Errorf("value %q: %w", s, err)
		}
		if mpint.Cmp(v, sk.N) >= 0 {
			return nil, nil, fmt.Errorf("value %s exceeds the modulus", s)
		}
		vals[i] = v
	}
	return sk, vals, nil
}

func prefix(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
