//go:build !amd64

package mpint

// addMulVW sets z += x·w over len(x) limbs and returns the carry-out limb.
// Only amd64 has an assembly row; everywhere else the Go loop is the row.
func addMulVW(z, x []Word, w Word) Word { return addMulVWGo(z, x, w) }
