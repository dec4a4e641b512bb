package supervise

import (
	"errors"
	"strings"
	"testing"
)

func TestGuardConvertsPanic(t *testing.T) {
	err := Guard(func() error { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "boom" {
		t.Errorf("Value = %v, want boom", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "supervise") {
		t.Errorf("stack does not mention the panicking frame:\n%s", pe.Stack)
	}
}

func TestGuardPassesThroughError(t *testing.T) {
	want := errors.New("plain")
	if err := Guard(func() error { return want }); err != want {
		t.Fatalf("err = %v, want %v", err, want)
	}
	if err := Guard(func() error { return nil }); err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
}
