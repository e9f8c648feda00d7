//go:build !amd64

package mpint

// Only amd64 has assembly: everywhere else the Go loop is the row, and no
// chain leaves the 64-bit limbs.
const useIFMA = false

// KernelName says which bodies this host's arithmetic runs on.
func KernelName() string { return "go" }

// addMulVW sets z += x·w over len(x) limbs and returns the carry-out limb.
func addMulVW(z, x []Word, w Word) Word { return addMulVWGo(z, x, w) }

func amm52(z, a, b, n []Word, d int, k0 Word) { panic("mpint: amm52 without IFMA") }

func amm52x8(z, a, b, n, t []Word, k0 *[8]Word, d int) { panic("mpint: amm52x8 without IFMA") }
