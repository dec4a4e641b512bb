// Package supervise isolates panicking pipeline work: Guard converts a
// panic into a typed *PanicError with the goroutine stack attached, so one
// poisoned item fails alone instead of tearing the process down. The
// summarisation ladder (core.SummarizeResilient) runs every attempt under
// it, and the daemon runs every request's ladder under it.
package supervise

import (
	"fmt"
	"runtime"
)

// PanicError is a recovered panic, preserving the panic value and the stack
// of the panicking goroutine. It lets batch drivers treat a panic in one
// item like any other per-item error instead of tearing the process down.
type PanicError struct {
	// Value is the value passed to panic().
	Value any
	// Stack is the formatted stack trace captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("supervise: panic: %v", e.Value)
}

// Guard runs fn, converting a panic into a *PanicError return. The returned
// error is fn's own error when it returns normally.
func Guard(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = &PanicError{Value: v, Stack: buf}
		}
	}()
	return fn()
}
