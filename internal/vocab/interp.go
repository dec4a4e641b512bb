package vocab

import (
	"fmt"

	"stringloops/internal/cstr"
)

// This file is the concrete interpreter of Algorithm 1, extended to the full
// vocabulary of Table 1. The interpreter has an input pointer register s, a
// result register, and a skip-instruction flag; malformed programs (running
// out of instructions, dereferencing NULL, reading past the buffer) yield an
// invalid pointer that never equals the original loop's output, so they are
// never synthesised.

// ResultKind classifies an interpreter result.
type ResultKind uint8

// Result kinds.
const (
	// Ptr is a pointer into the input buffer at offset Off (Off may be -1
	// for backward programs that step before the start, matching
	// Definition 2's p0 + (len-1) - c at c = len).
	Ptr ResultKind = iota
	// Null is the NULL pointer.
	Null
	// Invalid is the distinguished invalid pointer of Algorithm 1.
	Invalid
)

// Result is the interpreter's outcome.
type Result struct {
	Kind ResultKind
	Off  int
}

// String renders the result as the loop's return: s+N, NULL, or UB for the
// invalid pointer (C undefined behaviour in the original loop).
func (r Result) String() string {
	switch r.Kind {
	case Ptr:
		return fmt.Sprintf("s+%d", r.Off)
	case Null:
		return "NULL"
	}
	return "UB"
}

// PtrResult and friends build results.
func PtrResult(off int) Result { return Result{Kind: Ptr, Off: off} }

// NullResult is the NULL outcome.
func NullResult() Result { return Result{Kind: Null} }

// InvalidResult is the invalid-pointer outcome.
func InvalidResult() Result { return Result{Kind: Invalid} }

// Run interprets prog on the NUL-terminated buffer buf (Algorithm 1). A nil
// buf is the NULL input pointer. The result offset is relative to buf.
func Run(prog Program, buf []byte) Result {
	type space struct {
		buf      []byte
		reversed bool
		n        int // strlen of the original string (reversed mode only)
	}
	sp := space{buf: buf}
	isNullInput := buf == nil

	// result register: kind + offset within sp.buf.
	kind := Ptr
	off := 0
	if isNullInput {
		kind = Null
	}
	skip := false

	// finish maps a final result back into the original buffer (the return
	// behaviour of F under reverse).
	finish := func() Result {
		switch kind {
		case Null:
			return NullResult()
		case Invalid:
			return InvalidResult()
		}
		if sp.reversed {
			return PtrResult(sp.n - 1 - off)
		}
		return PtrResult(off)
	}

	// strOK reports whether the result points at a valid string position in
	// the current space (some position with a terminator at or after it
	// inside the buffer). Buffers always end in NUL, so any offset within
	// range is valid.
	strOK := func() bool {
		return kind == Ptr && off >= 0 && off < len(sp.buf)
	}

	for i, in := range prog {
		if skip {
			skip = false
			continue
		}
		switch in.Op {
		case OpReverse:
			if i != 0 || isNullInput {
				return InvalidResult()
			}
			rev := cstr.Reverse(sp.buf, 0)
			sp = space{buf: rev, reversed: true, n: len(rev) - 1}
			off = 0
		case OpRawmemchr:
			if !strOK() {
				return InvalidResult()
			}
			j := cstr.Memchr(sp.buf, off, in.Arg[0], len(sp.buf)-off)
			if j == cstr.NotFound {
				// rawmemchr would scan past the end: undefined behaviour.
				return InvalidResult()
			}
			off = j
		case OpStrchr:
			if !strOK() {
				return InvalidResult()
			}
			j := cstr.Strchr(sp.buf, off, in.Arg[0])
			if j == cstr.NotFound {
				kind = Null
			} else {
				off = j
			}
		case OpStrrchr:
			if !strOK() {
				return InvalidResult()
			}
			j := cstr.Strrchr(sp.buf, off, in.Arg[0])
			if j == cstr.NotFound {
				kind = Null
			} else {
				off = j
			}
		case OpStrpbrk:
			if !strOK() {
				return InvalidResult()
			}
			j := cstr.Strpbrk(sp.buf, off, cstr.ExpandMeta(in.Arg))
			if j == cstr.NotFound {
				kind = Null
			} else {
				off = j
			}
		case OpStrspn:
			if !strOK() {
				return InvalidResult()
			}
			off += cstr.Strspn(sp.buf, off, cstr.ExpandMeta(in.Arg))
		case OpStrcspn:
			if !strOK() {
				return InvalidResult()
			}
			off += cstr.Strcspn(sp.buf, off, cstr.ExpandMeta(in.Arg))
		case OpIsNullptr:
			skip = kind != Null
		case OpIsStart:
			// result != s: NULL input has result == s == NULL.
			if isNullInput {
				skip = kind != Null
			} else {
				skip = !(kind == Ptr && off == 0)
			}
		case OpIncrement:
			if kind != Ptr {
				return InvalidResult()
			}
			off++
		case OpSetToEnd:
			if isNullInput {
				return InvalidResult()
			}
			kind = Ptr
			off = cstr.Strlen(sp.buf, 0)
		case OpSetToStart:
			if isNullInput {
				kind = Null
			} else {
				kind = Ptr
				off = 0
			}
		case OpReturn:
			return finish()
		default:
			return InvalidResult()
		}
	}
	// Ran out of instructions.
	return InvalidResult()
}
