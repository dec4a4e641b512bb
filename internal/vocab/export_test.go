package vocab

// Specialized reports whether CompileGo gives p a specialised closure
// instead of the Run fallback.
func Specialized(p Program) bool { return specializeGo(p) != nil }

// CanRunOffEnd reports whether some run of p can pass its last instruction.
func CanRunOffEnd(p Program) bool { return p.canRunOffEnd() }
