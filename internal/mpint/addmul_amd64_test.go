package mpint

func addMulBodyName() string {
	if useADX {
		return "adx"
	}
	return "mulq"
}

// eachAddMulBody runs fn under the MULQ body and, where CPUID has it, the
// MULX one, then puts back the body init selected.
func eachAddMulBody(fn func(body string)) {
	defer func(was bool) { useADX = was }(useADX)
	useADX = false
	fn(addMulBodyName())
	if cpuHasADX() {
		useADX = true
		fn(addMulBodyName())
	}
}
