package mpint

// useADX selects the body addMulVW runs: eight limbs a pass through
// MULX/ADCX/ADOX when CPUID reports BMI2 and ADX, else a MULQ/ADCQ loop. It is
// set once, here; the in-package tests flip it to run the differential suites
// over both bodies.
var useADX = cpuHasADX()

// addMulVW sets z += x·w over len(x) limbs and returns the carry-out limb:
// the one row every multiply in this package is made of (addmul_amd64.s).
// len(z) must be at least len(x) — the assembly does not check — and z must
// not overlap x.
//
//go:noescape
func addMulVW(z, x []Word, w Word) (carry Word)

func cpuHasADX() bool
