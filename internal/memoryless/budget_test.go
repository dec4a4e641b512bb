package memoryless

import (
	"context"
	"testing"
	"time"

	"stringloops/internal/engine"
)

func TestVerifyWithCancelledBudgetReturnsPromptly(t *testing.T) {
	f := lower(t, `char *f(char *s) { while (*s == ' ') s++; return s; }`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before verification starts
	start := time.Now()
	r := VerifyWith(f, VerifyOptions{MaxLen: 3, Budget: engine.NewBudget(ctx, engine.Limits{})})
	if r.Memoryless {
		t.Fatal("cancelled verification must not report memoryless")
	}
	if r.Err != ErrTimeout {
		t.Fatalf("Err = %v, want ErrTimeout", r.Err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancelled verification took %v to return", d)
	}
}

func TestVerifyWithNilBudgetIsUnlimited(t *testing.T) {
	f := lower(t, `char *f(char *s) { while (*s == ' ') s++; return s; }`)
	r := VerifyWith(f, VerifyOptions{MaxLen: 3, Budget: nil})
	if !r.Memoryless || r.Err != nil {
		t.Fatalf("nil budget must behave like Verify: memoryless=%v err=%v reason=%s",
			r.Memoryless, r.Err, r.Reason)
	}
}
