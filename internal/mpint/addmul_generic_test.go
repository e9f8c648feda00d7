//go:build !amd64

package mpint

func addMulBodyName() string { return "go" }

func eachAddMulBody(fn func(body string)) { fn(addMulBodyName()) }
