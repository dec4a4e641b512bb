package bv

// The constructor tests predate the per-pipeline Interner and read naturally
// as algebra over one expression space. tin is that space: a single interner
// shared by the package tests, with the old package-level constructor names
// bound to it.

var tin = NewInterner()

func Const(width int, val uint64) *Term { return tin.Const(width, val) }
func Byte(b byte) *Term                 { return tin.Byte(b) }
func Int32(v int64) *Term               { return tin.Int32(v) }
func Var(name string, width int) *Term  { return tin.Var(name, width) }
func Not(a *Term) *Term                 { return tin.Not(a) }
func And(a, b *Term) *Term              { return tin.And(a, b) }
func Or(a, b *Term) *Term               { return tin.Or(a, b) }
func Xor(a, b *Term) *Term              { return tin.Xor(a, b) }
func Add(a, b *Term) *Term              { return tin.Add(a, b) }
func Sub(a, b *Term) *Term              { return tin.Sub(a, b) }
func Ite(c *Bool, a, b *Term) *Term     { return tin.Ite(c, a, b) }
func ShlC(a *Term, k int) *Term         { return tin.ShlC(a, k) }
func LshrC(a *Term, k int) *Term        { return tin.LshrC(a, k) }
func AshrC(a *Term, k int) *Term        { return tin.AshrC(a, k) }
func MulC(a *Term, c int64) *Term       { return tin.MulC(a, c) }
func Sext(a *Term, width int) *Term     { return tin.Sext(a, width) }
func Zext(a *Term, width int) *Term     { return tin.Zext(a, width) }
func BoolConst(v bool) *Bool            { return tin.BoolConst(v) }
func BoolVar(name string) *Bool         { return tin.BoolVar(name) }
func BNot1(a *Bool) *Bool               { return tin.BNot1(a) }
func BAnd2(a, b *Bool) *Bool            { return tin.BAnd2(a, b) }
func BOr2(a, b *Bool) *Bool             { return tin.BOr2(a, b) }
func BAndAll(bs ...*Bool) *Bool         { return tin.BAndAll(bs...) }
func BOrAll(bs ...*Bool) *Bool          { return tin.BOrAll(bs...) }
func Implies(a, b *Bool) *Bool          { return tin.BOr2(tin.BNot1(a), b) }
func Eq(a, b *Term) *Bool               { return tin.Eq(a, b) }
func Ne(a, b *Term) *Bool               { return tin.Ne(a, b) }
func Ult(a, b *Term) *Bool              { return tin.Ult(a, b) }
func Ule(a, b *Term) *Bool              { return tin.Ule(a, b) }
func Ugt(a, b *Term) *Bool              { return tin.Ult(b, a) }
func Slt(a, b *Term) *Bool              { return tin.Slt(a, b) }
func Sle(a, b *Term) *Bool              { return tin.Sle(a, b) }
