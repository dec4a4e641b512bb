package harness

import (
	"fmt"
	"strings"
	"time"

	"stringloops/internal/core"
	"stringloops/internal/vocab"
)

// CTestOptions configures GenerateCTests.
type CTestOptions struct {
	// MaxLen bounds the generated input strings (default 4).
	MaxLen int
	// Timeout bounds each loop's synthesis (default 30s).
	Timeout time.Duration
}

// GenerateCTests summarises every candidate loop in the C source and renders
// a self-contained C test harness: one assertion per loop behaviour, inputs
// derived by solving the summary's string constraints. Compiling the harness
// with a real C compiler cross-validates this library's entire semantic
// stack (front end, IR, symbolic execution, solver) against actual C.
func GenerateCTests(source string, opts CTestOptions) (string, int, error) {
	if opts.MaxLen == 0 {
		opts.MaxLen = 4
	}
	if opts.Timeout == 0 {
		opts.Timeout = 30 * time.Second
	}
	candidates, err := core.FindCandidates(source)
	if err != nil {
		return "", 0, err
	}

	var sb strings.Builder
	sb.WriteString("/* Generated test harness: one test per loop behaviour. */\n")
	sb.WriteString("#include <assert.h>\n#include <string.h>\n#include <stdio.h>\n\n")
	sb.WriteString("/* Functions under test. */\n")
	sb.WriteString(source)
	sb.WriteString("\n\n")

	var calls []string
	total := 0
	for _, c := range candidates {
		if c.Stage != "candidate" {
			continue
		}
		summary, err := core.Summarize(source, c.Function, core.Options{Timeout: opts.Timeout})
		if err != nil {
			fmt.Fprintf(&sb, "/* %s: no tests generated (%v) */\n\n", c.Function, err)
			continue
		}
		tests := summary.CoveringInputs(opts.MaxLen)
		fmt.Fprintf(&sb, "/* %s: summary `%s`, %d behaviours. */\n", c.Function, summary.Readable, len(tests))
		fmt.Fprintf(&sb, "static void test_%s(void) {\n", c.Function)
		for _, tc := range tests {
			in := vocab.CLiteral([]byte(tc.Input), '"')
			if tc.Null {
				fmt.Fprintf(&sb, "  assert(%s(%s) == NULL);\n", c.Function, in)
			} else {
				fmt.Fprintf(&sb, "  { char buf[] = %s; assert(%s(buf) == buf + %d); }\n",
					in, c.Function, tc.Offset)
			}
			total++
		}
		sb.WriteString("}\n\n")
		calls = append(calls, "test_"+c.Function)
	}

	sb.WriteString("int main(void) {\n")
	for _, call := range calls {
		fmt.Fprintf(&sb, "  %s();\n", call)
	}
	fmt.Fprintf(&sb, "  printf(\"all %d generated tests passed\\n\");\n", total)
	sb.WriteString("  return 0;\n}\n")
	return sb.String(), total, nil
}
