package cstr

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTerminateAndGoString(t *testing.T) {
	buf := Terminate("hello")
	if len(buf) != 6 || buf[5] != 0 {
		t.Fatalf("Terminate: got %v", buf)
	}
	if got := GoString(buf, 0); got != "hello" {
		t.Fatalf("GoString = %q", got)
	}
	if got := GoString(buf, 2); got != "llo" {
		t.Fatalf("GoString from 2 = %q", got)
	}
}

func TestStrlen(t *testing.T) {
	cases := []struct {
		s    string
		from int
		want int
	}{
		{"", 0, 0},
		{"a", 0, 1},
		{"abc", 0, 3},
		{"abc", 1, 2},
		{"abc", 3, 0},
	}
	for _, c := range cases {
		if got := Strlen(Terminate(c.s), c.from); got != c.want {
			t.Errorf("Strlen(%q, %d) = %d, want %d", c.s, c.from, got, c.want)
		}
	}
}

func TestStrlenEmbeddedNul(t *testing.T) {
	buf := []byte{'a', 0, 'b', 0}
	if got := Strlen(buf, 0); got != 1 {
		t.Fatalf("Strlen with embedded NUL = %d, want 1", got)
	}
	if got := Strlen(buf, 2); got != 1 {
		t.Fatalf("Strlen past embedded NUL = %d, want 1", got)
	}
}

func TestStrlenUnterminatedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unterminated buffer")
		}
	}()
	Strlen([]byte{'a', 'b'}, 0)
}

func TestStrchr(t *testing.T) {
	buf := Terminate("hello world")
	if got := Strchr(buf, 0, 'o'); got != 4 {
		t.Errorf("Strchr o = %d", got)
	}
	if got := Strchr(buf, 5, 'o'); got != 7 {
		t.Errorf("Strchr o from 5 = %d", got)
	}
	if got := Strchr(buf, 0, 'z'); got != NotFound {
		t.Errorf("Strchr z = %d", got)
	}
	// C semantics: searching for NUL finds the terminator.
	if got := Strchr(buf, 0, 0); got != 11 {
		t.Errorf("Strchr NUL = %d", got)
	}
}

func TestStrrchr(t *testing.T) {
	buf := Terminate("hello world")
	if got := Strrchr(buf, 0, 'o'); got != 7 {
		t.Errorf("Strrchr o = %d", got)
	}
	if got := Strrchr(buf, 0, 'h'); got != 0 {
		t.Errorf("Strrchr h = %d", got)
	}
	if got := Strrchr(buf, 0, 'z'); got != NotFound {
		t.Errorf("Strrchr z = %d", got)
	}
	if got := Strrchr(buf, 0, 0); got != 11 {
		t.Errorf("Strrchr NUL = %d", got)
	}
}

func TestStrspnStrcspn(t *testing.T) {
	buf := Terminate("  \t hi")
	if got := Strspn(buf, 0, []byte(" \t")); got != 4 {
		t.Errorf("Strspn ws = %d", got)
	}
	if got := Strcspn(buf, 0, []byte("h")); got != 4 {
		t.Errorf("Strcspn h = %d", got)
	}
	if got := Strspn(buf, 0, []byte("xyz")); got != 0 {
		t.Errorf("Strspn none = %d", got)
	}
	if got := Strcspn(buf, 0, []byte("xyz")); got != 6 {
		t.Errorf("Strcspn none = %d", got)
	}
	if got := Strspn(Terminate(""), 0, []byte("a")); got != 0 {
		t.Errorf("Strspn empty = %d", got)
	}
}

func TestStrpbrk(t *testing.T) {
	buf := Terminate("abcdef")
	if got := Strpbrk(buf, 0, []byte("fd")); got != 3 {
		t.Errorf("Strpbrk = %d", got)
	}
	if got := Strpbrk(buf, 0, []byte("xyz")); got != NotFound {
		t.Errorf("Strpbrk miss = %d", got)
	}
}

func TestMemchr(t *testing.T) {
	buf := []byte("abca")
	if got := Memchr(buf, 1, 'a', 3); got != 3 {
		t.Errorf("Memchr = %d", got)
	}
	if got := Memchr(buf, 0, 'z', 4); got != NotFound {
		t.Errorf("Memchr miss = %d", got)
	}
	if got := Memchr(buf, 0, 'c', 2); got != NotFound {
		t.Errorf("Memchr bounded = %d", got)
	}
}

func TestReverse(t *testing.T) {
	rev := Reverse(Terminate("abc"), 0)
	if GoString(rev, 0) != "cba" {
		t.Fatalf("Reverse = %q", GoString(rev, 0))
	}
	rev = Reverse(Terminate(""), 0)
	if GoString(rev, 0) != "" {
		t.Fatalf("Reverse empty = %q", GoString(rev, 0))
	}
}

// sanitize maps arbitrary quick-generated strings into NUL-free ASCII so they
// form valid C string contents.
func sanitize(s string) string {
	var sb strings.Builder
	for _, r := range s {
		b := byte(r%95) + 32 // printable ASCII
		sb.WriteByte(b)
	}
	return sb.String()
}

func TestStrchrAgainstIndexProperty(t *testing.T) {
	f := func(raw string, c byte) bool {
		s := sanitize(raw)
		if c == 0 {
			c = 'x'
		}
		got := Strchr(Terminate(s), 0, c)
		want := strings.IndexByte(s, c)
		if want == -1 {
			return got == NotFound
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStrrchrAgainstLastIndexProperty(t *testing.T) {
	f := func(raw string, c byte) bool {
		s := sanitize(raw)
		if c == 0 {
			c = 'x'
		}
		got := Strrchr(Terminate(s), 0, c)
		want := strings.LastIndexByte(s, c)
		if want == -1 {
			return got == NotFound
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpnCspnPartitionProperty(t *testing.T) {
	// For any charset, strspn + strcspn over complementary sets partition the
	// string: strspn(s, cs) counts in-set prefix, strcspn counts out-of-set
	// prefix; at least one of them must be 0, and both are <= len.
	f := func(raw, csRaw string) bool {
		s, cs := sanitize(raw), sanitize(csRaw)
		buf := Terminate(s)
		sp := Strspn(buf, 0, []byte(cs))
		csp := Strcspn(buf, 0, []byte(cs))
		if sp < 0 || sp > len(s) || csp < 0 || csp > len(s) {
			return false
		}
		return sp == 0 || csp == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStrpbrkStrcspnAgreeProperty(t *testing.T) {
	// strpbrk(s, cs) == s + strcspn(s, cs) when a match exists, per ISO C.
	f := func(raw, csRaw string) bool {
		s, cs := sanitize(raw), sanitize(csRaw)
		buf := Terminate(s)
		p := Strpbrk(buf, 0, []byte(cs))
		csp := Strcspn(buf, 0, []byte(cs))
		if p == NotFound {
			return csp == len(s)
		}
		return p == csp
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReverseInvolutionProperty(t *testing.T) {
	f := func(raw string) bool {
		s := sanitize(raw)
		twice := Reverse(Reverse(Terminate(s), 0), 0)
		return GoString(twice, 0) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMetaCharacterClasses(t *testing.T) {
	for c := 0; c < 256; c++ {
		wantDigit := c >= '0' && c <= '9'
		if MatchSet(byte(c), []byte{MetaDigit}) != wantDigit {
			t.Fatalf("digit class wrong at %d", c)
		}
		wantSpace := c == ' ' || c == '\t' || c == '\n'
		if MatchSet(byte(c), []byte{MetaSpace}) != wantSpace {
			t.Fatalf("whitespace class wrong at %d", c)
		}
	}
}

// ---- Edge cases the differential fuzzer (internal/diffuzz) relies on when
// it uses this package, via the vocab interpreter, as one of its oracles. ----

func TestStrchrNulFindsTerminator(t *testing.T) {
	// ISO C: strchr(s, 0) points at the terminator, never NULL.
	buf := Terminate("abc")
	if got := Strchr(buf, 0, 0); got != 3 {
		t.Errorf("Strchr(%q, 0, 0) = %d, want 3", buf, got)
	}
	if got := Strchr(buf, 2, 0); got != 3 {
		t.Errorf("Strchr(%q, 2, 0) = %d, want 3", buf, got)
	}
	if got := Strchr(Terminate(""), 0, 0); got != 0 {
		t.Errorf("Strchr on empty string with c=0: got %d, want 0", got)
	}
}

func TestStrrchrNulFindsTerminator(t *testing.T) {
	buf := Terminate("aba")
	if got := Strrchr(buf, 0, 0); got != 3 {
		t.Errorf("Strrchr(%q, 0, 0) = %d, want 3", buf, got)
	}
	if got := Strrchr(Terminate(""), 0, 0); got != 0 {
		t.Errorf("Strrchr on empty string with c=0: got %d, want 0", got)
	}
	// And a normal last-occurrence lookup from a non-zero offset.
	if got := Strrchr(buf, 1, 'a'); got != 2 {
		t.Errorf("Strrchr(%q, 1, 'a') = %d, want 2", buf, got)
	}
}

func TestEmptySets(t *testing.T) {
	buf := Terminate("abc")
	if got := Strspn(buf, 0, nil); got != 0 {
		t.Errorf("Strspn with empty set = %d, want 0", got)
	}
	if got := Strcspn(buf, 0, nil); got != 3 {
		t.Errorf("Strcspn with empty set = %d, want 3 (whole string)", got)
	}
	if got := Strpbrk(buf, 0, nil); got != NotFound {
		t.Errorf("Strpbrk with empty set = %d, want NotFound", got)
	}
	if MatchSet('a', nil) {
		t.Error("MatchSet with empty set matched")
	}
}

func TestFromAtTerminator(t *testing.T) {
	// All functions applied to the empty suffix starting exactly at the NUL.
	buf := Terminate("ab") // terminator at offset 2
	from := 2
	if got := Strlen(buf, from); got != 0 {
		t.Errorf("Strlen at terminator = %d", got)
	}
	if got := Strchr(buf, from, 'a'); got != NotFound {
		t.Errorf("Strchr at terminator = %d, want NotFound", got)
	}
	if got := Strrchr(buf, from, 'a'); got != NotFound {
		t.Errorf("Strrchr at terminator = %d, want NotFound", got)
	}
	if got := Strspn(buf, from, []byte("ab")); got != 0 {
		t.Errorf("Strspn at terminator = %d", got)
	}
	if got := Strcspn(buf, from, []byte("xy")); got != 0 {
		t.Errorf("Strcspn at terminator = %d", got)
	}
	if got := Strpbrk(buf, from, []byte("ab")); got != NotFound {
		t.Errorf("Strpbrk at terminator = %d, want NotFound", got)
	}
	if got := GoString(buf, from); got != "" {
		t.Errorf("GoString at terminator = %q", got)
	}
	// Memchr with n=0 never finds anything, even at a live offset.
	if got := Memchr(buf, 0, 'a', 0); got != NotFound {
		t.Errorf("Memchr with n=0 = %d, want NotFound", got)
	}
}
