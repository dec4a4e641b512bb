package cc_test

import (
	"testing"

	"stringloops/internal/cc"
	"stringloops/internal/cir"
)

// FuzzLower carries FuzzParse on into lowering: every function of a source
// Parse accepts either lowers or returns an error, never a panic, and what
// lowers must survive Mem2Reg and print.
func FuzzLower(f *testing.F) {
	f.Add("char *f(char *s) { while (*s == ' ') s++; return s; }")
	f.Add("#define WS(c) ((c) == ' ' || (c) == '\\t')\nchar *f(char *s) { while (WS(*s)) s++; return s; }")
	f.Add("int f(int x) { if (x) goto out; x++; out: return x ? -x : ~x; }")
	f.Add("int f(void) { break; }")
	// Comments hiding or surrounding directives, and a CRLF splice.
	loop := "char *f(char *s) { while (*s == SP) s++; return s; }\n"
	f.Add("#define SP ' '\n/*\n#define SP 'x'\n*/\n" + loop)
	f.Add("#define SP ' '\n/*\n#undef SP\n*/\n" + loop)
	f.Add("#define SP ' '\n/*\n#if 0\n*/\n" + loop)
	f.Add("/* ws */ #define SP ' '\n" + loop)
	f.Add("#define SP ' ' /* a\n b */\n" + loop)
	f.Add("#define SP (' ' + \\\r\n 0)\r\n" + loop)
	f.Fuzz(func(t *testing.T, src string) {
		file, err := cc.Parse(src)
		if err != nil {
			return
		}
		for _, fn := range file.Funcs {
			ir, err := cir.LowerFunc(fn, file)
			if err != nil {
				continue
			}
			_ = ir.String()
			cir.Mem2Reg(ir)
			_ = ir.String()
		}
	})
}
