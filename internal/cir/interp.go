package cir

import (
	"errors"
	"fmt"
)

// This file is the concrete interpreter's data model: values, the heap and
// the errors a run ends with. The interpreter itself is the Machine
// (machine.go). It is the execution oracle the rest of the system relies on:
// CEGIS evaluates Original(cex) with it (Algorithm 2), the memoryless check
// reads its specification off it (§3.2), tests cross-check lowering against
// C semantics with it, and the native-optimisation study (§4.4) uses it as
// the byte-at-a-time execution of the original loop.

// CVal is a concrete IR value: an integer or a pointer (object + byte
// offset). The null pointer has Obj == -1.
type CVal struct {
	IsPtr bool
	Int   int64
	Obj   int
	Off   int
}

// IntVal returns an integer value (kept to int32 range by arithmetic).
func IntVal(v int64) CVal { return CVal{Int: int64(int32(v))} }

// PtrVal returns a pointer value.
func PtrVal(obj, off int) CVal { return CVal{IsPtr: true, Obj: obj, Off: off} }

// NullVal returns the null pointer.
func NullVal() CVal { return CVal{IsPtr: true, Obj: -1} }

// IsNull reports whether v is the null pointer.
func (v CVal) IsNull() bool { return v.IsPtr && v.Obj == -1 }

func (v CVal) String() string {
	if v.IsPtr {
		if v.IsNull() {
			return "null"
		}
		return fmt.Sprintf("&obj%d+%d", v.Obj, v.Off)
	}
	return fmt.Sprintf("%d", v.Int)
}

// Memory is the interpreter's object heap: byte-array data objects (string
// buffers) and cell objects (promoted-size local slots holding one value).
// Object ids count up from 0 in allocation order.
type Memory struct {
	objs []object
	// arena backs the objects AllocCopy makes. reset keeps its capacity,
	// so a heap reused run after run stops allocating.
	arena []byte
}

type object struct {
	isData bool
	data   []byte // a data object's bytes
	cell   CVal   // a cell's value
}

// NewMemory returns an empty heap.
func NewMemory() *Memory { return &Memory{} }

// reset empties the heap and keeps its storage for the next run.
func (m *Memory) reset() {
	m.objs, m.arena = m.objs[:0], m.arena[:0]
}

// AllocData adds a byte-array object and returns its object id. The slice is
// used directly (callers keep ownership for inspection).
func (m *Memory) AllocData(b []byte) int {
	m.objs = append(m.objs, object{isData: true, data: b})
	return len(m.objs) - 1
}

// AllocCopy adds a byte-array object holding a copy of b and returns its
// object id. The copy lives in the heap's own storage, which a machine
// reuses run after run (Machine.Heap).
func (m *Memory) AllocCopy(b []byte) int {
	start := len(m.arena)
	m.arena = append(m.arena, b...)
	return m.allocArena(start)
}

// allocString adds a data object holding s and its NUL terminator: a run's
// own copy of a string literal.
func (m *Memory) allocString(s string) int {
	start := len(m.arena)
	m.arena = append(append(m.arena, s...), 0)
	return m.allocArena(start)
}

// allocArena makes the arena's bytes from start on a data object. The full
// slice expression keeps a later object from growing into it.
func (m *Memory) allocArena(start int) int {
	end := len(m.arena)
	return m.AllocData(m.arena[start:end:end])
}

// AllocCell adds a one-value cell object (a local slot) and returns its id.
func (m *Memory) AllocCell() int {
	m.objs = append(m.objs, object{})
	return len(m.objs) - 1
}

// at returns the object p points to, or nil when p is no pointer into the
// heap (an integer, NULL, or a dangling object id).
func (m *Memory) at(p CVal) *object {
	if !p.IsPtr || uint(p.Obj) >= uint(len(m.objs)) {
		return nil
	}
	return &m.objs[p.Obj]
}

// Errors reported by Exec.
var (
	// ErrStepLimit means the execution exceeded its step budget (a likely
	// non-terminating loop).
	ErrStepLimit = errors.New("cir: step limit exceeded")
	// ErrMemory means an out-of-bounds or null access occurred — C undefined
	// behaviour surfaced as an error.
	ErrMemory = errors.New("cir: invalid memory access")
	// errDivZero is integer division or remainder by zero.
	errDivZero = errors.New("cir: division by zero")
)

// ExecResult is the outcome of a concrete run.
type ExecResult struct {
	Ret   CVal
	Steps int
}

// Exec runs f on the given arguments with the given heap. maxSteps bounds the
// instruction count (0 means a generous default). It decodes f afresh on
// every call; a caller that runs one function many times should hold a
// Machine. Malformed IR is reported as an error naming the function, block
// and instruction, never as a panic.
func Exec(f *Func, args []CVal, mem *Memory, maxSteps int) (ExecResult, error) {
	return NewMachine(f).Exec(args, mem, maxSteps)
}
