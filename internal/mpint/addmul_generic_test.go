//go:build !amd64

package mpint

func eachAddMulBody(fn func(body string)) (skipped []string) {
	fn(KernelName())
	return nil
}
