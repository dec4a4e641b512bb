package cir

import "stringloops/internal/cstr"

// This file is the machine's library: the string.h functions over data
// objects (their arguments checked here, their work done by cstr), so
// idiom-rewritten and refactored code runs concretely, and the
// ctype.h-style character functions loops call. The character functions
// take and return ints, so the automatic pointer-call filter keeps loops
// using them — exactly the loops whose synthesis needs meta-characters
// (§2.2).

// An Intrinsic is a library function a DCall runs.
type Intrinsic uint8

// The intrinsics; FnUnknown is a callee of unknown name.
const (
	FnStrlen Intrinsic = iota
	FnStrchr
	FnStrrchr
	FnRawmemchr
	FnStrspn
	FnStrcspn
	FnStrpbrk
	FnMemchr
	FnIsdigit // the first character function
	FnIsspace
	FnIsblank
	FnIsupper
	FnIslower
	FnIsalpha
	FnIsalnum
	FnToupper
	FnTolower
	FnPutchar
	FnUnknown
)

// intrinsicNames names each intrinsic (an array: no start-up cost).
var intrinsicNames = [...]string{
	FnStrlen: "strlen", FnStrchr: "strchr", FnStrrchr: "strrchr",
	FnRawmemchr: "rawmemchr", FnStrspn: "strspn", FnStrcspn: "strcspn",
	FnStrpbrk: "strpbrk", FnMemchr: "memchr",
	FnIsdigit: "isdigit", FnIsspace: "isspace", FnIsblank: "isblank",
	FnIsupper: "isupper", FnIslower: "islower", FnIsalpha: "isalpha",
	FnIsalnum: "isalnum", FnToupper: "toupper", FnTolower: "tolower",
	FnPutchar: "putchar",
}

// String is the intrinsic's C name.
func (k Intrinsic) String() string {
	if k < FnUnknown {
		return intrinsicNames[k]
	}
	return "unknown"
}

// intrinsicOf maps a called function's name to its Intrinsic.
func intrinsicOf(name string) Intrinsic {
	for k, n := range intrinsicNames {
		if n == name {
			return Intrinsic(k)
		}
	}
	return FnUnknown
}

// call runs intrinsic k on the first n of args; args holds at least three
// values, zero past n. Undefined behaviour of the string functions (NULL or
// unterminated arguments, rawmemchr scanning off the buffer) is fMemory.
func (m *Memory) call(k Intrinsic, args []CVal, n int) (CVal, fault) {
	if k >= FnIsdigit {
		if n != 1 || args[0].IsPtr {
			return CVal{}, fUnsupportedCall
		}
		return ctype(k, args[0].Int)
	}
	// raw returns the buffer and offset of pointer argument i; str also
	// requires a terminator at or after the offset.
	raw := func(i int) ([]byte, int, bool) {
		p := args[i]
		o := m.at(p)
		if i >= n || o == nil || !o.isData {
			return nil, 0, false
		}
		buf := o.data
		if p.Off < 0 || p.Off > len(buf) {
			return nil, 0, false
		}
		return buf, p.Off, true
	}
	str := func(i int) ([]byte, int, bool) {
		buf, off, ok := raw(i)
		if !ok {
			return nil, 0, false
		}
		for k := off; k < len(buf); k++ {
			if buf[k] == 0 {
				return buf, off, true
			}
		}
		return nil, 0, false
	}
	ptrAt := func(off int) CVal { return PtrVal(args[0].Obj, off) }
	found := func(off int) CVal {
		if off == cstr.NotFound {
			return NullVal()
		}
		return ptrAt(off)
	}

	// The checks above make every call below defined: cstr runs it.
	switch k {
	case FnStrlen:
		buf, off, ok := str(0)
		if !ok {
			return CVal{}, fMemory
		}
		return IntVal(int64(cstr.Strlen(buf, off))), 0
	case FnStrchr, FnStrrchr:
		buf, off, ok := str(0)
		if !ok {
			return CVal{}, fMemory
		}
		find := cstr.Strchr
		if k == FnStrrchr {
			find = cstr.Strrchr
		}
		return found(find(buf, off, byte(args[1].Int))), 0
	case FnRawmemchr:
		// No terminator check: scanning off the buffer is UB.
		buf, off, ok := raw(0)
		if !ok {
			return CVal{}, fMemory
		}
		i := cstr.Memchr(buf, off, byte(args[1].Int), len(buf)-off)
		if i == cstr.NotFound {
			return CVal{}, fMemory
		}
		return ptrAt(i), 0
	case FnStrspn, FnStrcspn, FnStrpbrk:
		buf, off, ok := str(0)
		if !ok {
			return CVal{}, fMemory
		}
		set, setOff, ok := str(1)
		if !ok {
			return CVal{}, fMemory
		}
		set = set[setOff : setOff+cstr.Strlen(set, setOff)]
		switch k {
		case FnStrspn:
			return IntVal(int64(cstr.Strspn(buf, off, set))), 0
		case FnStrcspn:
			return IntVal(int64(cstr.Strcspn(buf, off, set))), 0
		}
		return found(cstr.Strpbrk(buf, off, set)), 0
	case FnMemchr:
		buf, off, ok := raw(0)
		if !ok {
			return CVal{}, fMemory
		}
		if l := int(args[2].Int); l > 0 {
			return found(cstr.Memchr(buf, off, byte(args[1].Int), l)), 0
		}
		return NullVal(), 0
	}
	return CVal{}, fUnknownFunc
}

// ctype runs character function k on c.
func ctype(k Intrinsic, c int64) (CVal, fault) {
	inRange := c >= 0 && c <= 255
	b := byte(c)
	digit := inRange && b >= '0' && b <= '9'
	upper := inRange && b >= 'A' && b <= 'Z'
	lower := inRange && b >= 'a' && b <= 'z'
	switch k {
	case FnIsdigit:
		return boolVal(digit), 0
	case FnIsspace:
		return boolVal(inRange && (b == ' ' || b == '\t' || b == '\n' || b == '\r' || b == '\v' || b == '\f')), 0
	case FnIsblank:
		return boolVal(inRange && (b == ' ' || b == '\t')), 0
	case FnIsupper:
		return boolVal(upper), 0
	case FnIslower:
		return boolVal(lower), 0
	case FnIsalpha:
		return boolVal(upper || lower), 0
	case FnIsalnum:
		return boolVal(digit || upper || lower), 0
	case FnToupper:
		if lower {
			return IntVal(c - 32), 0
		}
		return IntVal(c), 0
	case FnTolower:
		if upper {
			return IntVal(c + 32), 0
		}
		return IntVal(c), 0
	case FnPutchar:
		return IntVal(c), 0 // I/O side effect modelled as a no-op
	}
	return CVal{}, fUnknownFunc
}
