// Package cstr provides executable reference semantics for the C standard
// library string functions used by the loop-summarisation vocabulary
// (Table 1 of the paper): strlen, strchr, strrchr, strspn, strcspn,
// strpbrk, rawmemchr and friends.
//
// A C string is modelled as a byte buffer containing at least one NUL
// terminator; positions inside a string are byte offsets. The package is the
// oracle against which both the gadget interpreter and the string-theory
// solver are tested, and it backs the "naive loop" side of the native
// optimisation study (§4.4).
package cstr

import "bytes"

// NotFound is returned by search functions when no matching byte exists, the
// moral equivalent of a NULL return from strchr.
const NotFound = -1

// Terminate returns a NUL-terminated copy of s. It is the standard way to
// build a C string buffer from a Go string.
func Terminate(s string) []byte {
	buf := make([]byte, len(s)+1)
	copy(buf, s)
	return buf
}

// GoString returns the Go string held in buf starting at offset from: the
// bytes up to (excluding) the first NUL. It panics if from is out of range or
// buf holds no NUL at or after from, mirroring the undefined behaviour of
// reading an unterminated C buffer.
func GoString(buf []byte, from int) string {
	return string(buf[from : from+Strlen(buf, from)])
}

// Strlen returns the number of bytes before the first NUL at or after
// offset from. It panics if the buffer is unterminated (C's undefined
// behaviour surfaced as a defined failure).
func Strlen(buf []byte, from int) int {
	i := bytes.IndexByte(buf[from:], 0)
	if i < 0 {
		panic("cstr: unterminated string buffer")
	}
	return i
}

// Strchr returns the offset of the first occurrence of c in the string
// starting at from, or NotFound. As in C, c may be NUL, in which case the
// offset of the terminator is returned.
func Strchr(buf []byte, from int, c byte) int {
	n := Strlen(buf, from)
	if c == 0 {
		return from + n
	}
	i := bytes.IndexByte(buf[from:from+n], c)
	if i < 0 {
		return NotFound
	}
	return from + i
}

// Strrchr returns the offset of the last occurrence of c in the string
// starting at from, or NotFound. As in C, c may be NUL.
func Strrchr(buf []byte, from int, c byte) int {
	n := Strlen(buf, from)
	if c == 0 {
		return from + n
	}
	for i := from + n - 1; i >= from; i-- {
		if buf[i] == c {
			return i
		}
	}
	return NotFound
}

// Strspn returns the length of the longest prefix of the string at from that
// consists only of bytes in charset.
func Strspn(buf []byte, from int, charset []byte) int {
	n := Strlen(buf, from)
	for i := 0; i < n; i++ {
		if bytes.IndexByte(charset, buf[from+i]) < 0 {
			return i
		}
	}
	return n
}

// Strcspn returns the length of the longest prefix of the string at from that
// consists only of bytes *not* in charset.
func Strcspn(buf []byte, from int, charset []byte) int {
	n := Strlen(buf, from)
	for i := 0; i < n; i++ {
		if bytes.IndexByte(charset, buf[from+i]) >= 0 {
			return i
		}
	}
	return n
}

// Strpbrk returns the offset of the first byte of the string at from that is
// in charset, or NotFound.
func Strpbrk(buf []byte, from int, charset []byte) int {
	n := Strlen(buf, from)
	for i := from; i < from+n; i++ {
		if bytes.IndexByte(charset, buf[i]) >= 0 {
			return i
		}
	}
	return NotFound
}

// Memchr returns the offset of the first occurrence of c in the n bytes at
// from, or NotFound.
func Memchr(buf []byte, from int, c byte, n int) int {
	end := from + n
	if end > len(buf) {
		end = len(buf)
	}
	i := bytes.IndexByte(buf[from:end], c)
	if i < 0 {
		return NotFound
	}
	return from + i
}

// Reverse returns a new NUL-terminated buffer holding the string at from
// reversed. It implements the buffer copy performed by the reverse gadget.
func Reverse(buf []byte, from int) []byte {
	n := Strlen(buf, from)
	out := make([]byte, n+1)
	for i := 0; i < n; i++ {
		out[i] = buf[from+n-1-i]
	}
	return out
}

// Meta-characters (§2.2): single bytes inside synthesised character sets that
// expand to whole character classes. The paper chose '\a' for the digit
// class; we use '\v' for its whitespace class. A buffer position holding one
// of these bytes inside a gadget argument always denotes the class, never the
// literal control character.
const (
	// MetaDigit expands to "0123456789".
	MetaDigit = '\a'
	// MetaSpace expands to " \t\n".
	MetaSpace = '\v'
)

// MatchSet reports whether byte c is matched by the character set, where set
// members are literal bytes except for the meta-characters, which match
// their class. NUL never matches (C character sets cannot contain the
// terminator).
func MatchSet(c byte, set []byte) bool {
	if c == 0 {
		return false
	}
	for _, m := range set {
		switch m {
		case MetaDigit:
			if '0' <= c && c <= '9' {
				return true
			}
		case MetaSpace:
			if c == ' ' || c == '\t' || c == '\n' {
				return true
			}
		default:
			if c == m {
				return true
			}
		}
	}
	return false
}

// ExpandMeta returns set with meta-characters replaced by the characters of
// their class, suitable for passing to the plain C string functions.
func ExpandMeta(set []byte) []byte {
	out := make([]byte, 0, len(set))
	for _, m := range set {
		switch m {
		case MetaDigit:
			out = append(out, []byte("0123456789")...)
		case MetaSpace:
			out = append(out, ' ', '\t', '\n')
		default:
			out = append(out, m)
		}
	}
	return out
}
