package loopdb

import (
	"fmt"
	"sort"

	"stringloops/internal/cstr"
	"stringloops/internal/vocab"
)

// This file defines the memoryless-loop templates behind the curated corpus:
// each template instantiates to a C loop function (the shapes §2.1 and §4
// describe: prefix skipping, delimiter scanning, character searches, suffix
// trimming, digit runs), a Go transliteration used as the byte-at-a-time
// baseline of §4.4, the expected summary, and the ground-truth labels for
// Table 3 (synthesises?) and §3.3 (verifies memoryless?).

// cLit renders a byte as a C character literal.
func cLit(c byte) string {
	switch c {
	case '\'':
		return `'\''`
	case '\\':
		return `'\\'`
	case '\t':
		return `'\t'`
	case '\n':
		return `'\n'`
	default:
		if c >= 32 && c <= 126 {
			return fmt.Sprintf("'%c'", c)
		}
		return fmt.Sprintf("'\\x%02x'", c)
	}
}

func sorted(chars ...byte) []byte {
	out := append([]byte{}, chars...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// encSpan builds the expected "P<set>\0F"-style encoding with sorted set
// characters (the synthesizer canonicalises sets in increasing order).
func encSet(op vocab.Op, chars ...byte) string {
	return string(byte(op)) + string(sorted(chars...)) + "\x00F"
}

// ---- Synthesisable templates ----

// spanChar: skip a run of one character. Summary: P<c>\0F.
func spanChar(name string, c byte) Loop {
	return Loop{
		Name:     name,
		FuncName: "loop_fn",
		Category: CatMemoryless,
		Source: fmt.Sprintf(`char *loop_fn(char *s) {
  while (*s == %s)
    s++;
  return s;
}`, cLit(c)),
		ExpectSynth:      true,
		ExpectMemoryless: true,
		WantProgram:      encSet(vocab.OpStrspn, c),
		Ref: func(buf []byte) vocab.Result {
			if buf == nil {
				return vocab.InvalidResult()
			}
			i := 0
			for buf[i] == c {
				i++
			}
			return vocab.PtrResult(i)
		},
	}
}

// spanTwo: skip a run of two characters (for-loop form). Summary: P<ab>\0F.
func spanTwo(name string, a, b byte) Loop {
	return Loop{
		Name:     name,
		FuncName: "loop_fn",
		Category: CatMemoryless,
		Source: fmt.Sprintf(`char *loop_fn(char *s) {
  char *p;
  for (p = s; *p == %s || *p == %s; p++)
    ;
  return p;
}`, cLit(a), cLit(b)),
		ExpectSynth:      true,
		ExpectMemoryless: true,
		WantProgram:      encSet(vocab.OpStrspn, a, b),
		Ref: func(buf []byte) vocab.Result {
			if buf == nil {
				return vocab.InvalidResult()
			}
			i := 0
			for buf[i] == a || buf[i] == b {
				i++
			}
			return vocab.PtrResult(i)
		},
	}
}

// spanGuarded: the Figure 1 shape — NULL guard plus whitespace skip.
// Summary: ZFP<ab>\0F.
func spanGuarded(name string, a, b byte) Loop {
	return Loop{
		Name:     name,
		FuncName: "loop_fn",
		Category: CatMemoryless,
		Source: fmt.Sprintf(`#define accept(c) (((c) == %s) || ((c) == %s))
char *loop_fn(char *line) {
  char *p;
  for (p = line; p && *p && accept (*p); p++)
    ;
  return p;
}`, cLit(a), cLit(b)),
		ExpectSynth:      true,
		ExpectMemoryless: true,
		WantProgram:      "ZF" + encSet(vocab.OpStrspn, a, b),
		Ref: func(buf []byte) vocab.Result {
			if buf == nil {
				return vocab.NullResult()
			}
			i := 0
			for buf[i] == a || buf[i] == b {
				i++
			}
			return vocab.PtrResult(i)
		},
	}
}

// cspnChar: scan to a delimiter or the end. Summary: N<c>\0F.
func cspnChar(name string, c byte) Loop {
	return Loop{
		Name:     name,
		FuncName: "loop_fn",
		Category: CatMemoryless,
		Source: fmt.Sprintf(`char *loop_fn(char *s) {
  while (*s && *s != %s)
    s++;
  return s;
}`, cLit(c)),
		ExpectSynth:      true,
		ExpectMemoryless: true,
		WantProgram:      encSet(vocab.OpStrcspn, c),
		Ref: func(buf []byte) vocab.Result {
			if buf == nil {
				return vocab.InvalidResult()
			}
			i := 0
			for buf[i] != 0 && buf[i] != c {
				i++
			}
			return vocab.PtrResult(i)
		},
	}
}

// cspnTwo: scan to either of two delimiters (index form). Summary: N<ab>\0F.
func cspnTwo(name string, a, b byte) Loop {
	return Loop{
		Name:     name,
		FuncName: "loop_fn",
		Category: CatMemoryless,
		Source: fmt.Sprintf(`char *loop_fn(char *s) {
  int i = 0;
  while (s[i] != 0 && s[i] != %s && s[i] != %s)
    i++;
  return s + i;
}`, cLit(a), cLit(b)),
		ExpectSynth:      true,
		ExpectMemoryless: true,
		WantProgram:      encSet(vocab.OpStrcspn, a, b),
		Ref: func(buf []byte) vocab.Result {
			if buf == nil {
				return vocab.InvalidResult()
			}
			i := 0
			for buf[i] != 0 && buf[i] != a && buf[i] != b {
				i++
			}
			return vocab.PtrResult(i)
		},
	}
}

// chrTernary: strchr without a return in the loop body (a post-loop check
// yields NULL on a miss). Summary: C<c>F.
func chrTernary(name string, c byte) Loop {
	return Loop{
		Name:     name,
		FuncName: "loop_fn",
		Category: CatMemoryless,
		Source: fmt.Sprintf(`char *loop_fn(char *s) {
  while (*s && *s != %s)
    s++;
  return *s == %s ? s : 0;
}`, cLit(c), cLit(c)),
		ExpectSynth:      true,
		ExpectMemoryless: true,
		WantProgram:      string(byte(vocab.OpStrchr)) + string(c) + "F",
		Ref: func(buf []byte) vocab.Result {
			if buf == nil {
				return vocab.InvalidResult()
			}
			i := 0
			for buf[i] != 0 && buf[i] != c {
				i++
			}
			if buf[i] == c {
				return vocab.PtrResult(i)
			}
			return vocab.NullResult()
		},
	}
}

// pbrkTernary: first of two break characters, NULL on a miss.
// Summary: B<ab>\0F.
func pbrkTernary(name string, a, b byte) Loop {
	return Loop{
		Name:     name,
		FuncName: "loop_fn",
		Category: CatMemoryless,
		Source: fmt.Sprintf(`char *loop_fn(char *s) {
  while (*s && *s != %s && *s != %s)
    s++;
  return (*s == %s || *s == %s) ? s : 0;
}`, cLit(a), cLit(b), cLit(a), cLit(b)),
		ExpectSynth:      true,
		ExpectMemoryless: true,
		WantProgram:      encSet(vocab.OpStrpbrk, a, b),
		Ref: func(buf []byte) vocab.Result {
			if buf == nil {
				return vocab.InvalidResult()
			}
			i := 0
			for buf[i] != 0 && buf[i] != a && buf[i] != b {
				i++
			}
			if buf[i] == 0 {
				return vocab.NullResult()
			}
			return vocab.PtrResult(i)
		},
	}
}

// rawChr: search without a terminator check — rawmemchr semantics (UB when
// the character is absent). Summary: M<c>F.
func rawChr(name string, c byte) Loop {
	return Loop{
		Name:     name,
		FuncName: "loop_fn",
		Category: CatMemoryless,
		Source: fmt.Sprintf(`char *loop_fn(char *s) {
  while (*s != %s)
    s++;
  return s;
}`, cLit(c)),
		ExpectSynth:      true,
		ExpectMemoryless: true,
		WantProgram:      string(byte(vocab.OpRawmemchr)) + string(c) + "F",
		Ref: func(buf []byte) vocab.Result {
			if buf == nil {
				return vocab.InvalidResult()
			}
			for i := 0; i < len(buf); i++ {
				if buf[i] == c {
					return vocab.PtrResult(i)
				}
			}
			return vocab.InvalidResult()
		},
	}
}

// strlenEnd: advance to the terminator. Summary: EF.
func strlenEnd(name string) Loop {
	return Loop{
		Name:     name,
		FuncName: "loop_fn",
		Category: CatMemoryless,
		Source: `char *loop_fn(char *s) {
  while (*s)
    s++;
  return s;
}`,
		ExpectSynth:      true,
		ExpectMemoryless: true,
		WantProgram:      "EF",
		Ref: func(buf []byte) vocab.Result {
			if buf == nil {
				return vocab.InvalidResult()
			}
			i := 0
			for buf[i] != 0 {
				i++
			}
			return vocab.PtrResult(i)
		},
	}
}

// digitSpanCmp: digit run via range comparisons — needs the digit
// meta-character. Summary: P\a\0F.
func digitSpanCmp(name string) Loop {
	return Loop{
		Name:     name,
		FuncName: "loop_fn",
		Category: CatMemoryless,
		Source: `char *loop_fn(char *s) {
  while (*s >= '0' && *s <= '9')
    s++;
  return s;
}`,
		ExpectSynth:      true,
		ExpectMemoryless: true,
		WantProgram:      encSet(vocab.OpStrspn, cstr.MetaDigit),
		Ref: func(buf []byte) vocab.Result {
			if buf == nil {
				return vocab.InvalidResult()
			}
			i := 0
			for buf[i] >= '0' && buf[i] <= '9' {
				i++
			}
			return vocab.PtrResult(i)
		},
	}
}

// digitCspn: scan to the first digit. Summary: N\a\0F.
func digitCspn(name string) Loop {
	return Loop{
		Name:     name,
		FuncName: "loop_fn",
		Category: CatMemoryless,
		Source: `char *loop_fn(char *s) {
  while (*s && (*s < '0' || *s > '9'))
    s++;
  return s;
}`,
		ExpectSynth:      true,
		ExpectMemoryless: true,
		WantProgram:      encSet(vocab.OpStrcspn, cstr.MetaDigit),
		Ref: func(buf []byte) vocab.Result {
			if buf == nil {
				return vocab.InvalidResult()
			}
			i := 0
			for buf[i] != 0 && (buf[i] < '0' || buf[i] > '9') {
				i++
			}
			return vocab.PtrResult(i)
		},
	}
}

// wsSpan3: three-way whitespace skip — the whitespace meta-character.
// Summary: P\v\0F (\v is the meta, expanding to " \t\n").
func wsSpan3(name string) Loop {
	return Loop{
		Name:     name,
		FuncName: "loop_fn",
		Category: CatMemoryless,
		Source: `char *loop_fn(char *s) {
  while (*s == ' ' || *s == '\t' || *s == '\n')
    s++;
  return s;
}`,
		ExpectSynth:      true,
		ExpectMemoryless: true,
		WantProgram:      encSet(vocab.OpStrspn, cstr.MetaSpace),
		Ref: func(buf []byte) vocab.Result {
			if buf == nil {
				return vocab.InvalidResult()
			}
			i := 0
			for buf[i] == ' ' || buf[i] == '\t' || buf[i] == '\n' {
				i++
			}
			return vocab.PtrResult(i)
		},
	}
}

// wsCspn3: scan to whitespace. Summary: N\v\0F.
func wsCspn3(name string) Loop {
	return Loop{
		Name:     name,
		FuncName: "loop_fn",
		Category: CatMemoryless,
		Source: `char *loop_fn(char *s) {
  while (*s && *s != ' ' && *s != '\t' && *s != '\n')
    s++;
  return s;
}`,
		ExpectSynth:      true,
		ExpectMemoryless: true,
		WantProgram:      encSet(vocab.OpStrcspn, cstr.MetaSpace),
		Ref: func(buf []byte) vocab.Result {
			if buf == nil {
				return vocab.InvalidResult()
			}
			i := 0
			for buf[i] != 0 && buf[i] != ' ' && buf[i] != '\t' && buf[i] != '\n' {
				i++
			}
			return vocab.PtrResult(i)
		},
	}
}

// rtrim: Definition 2 backward loop trimming a trailing run; returns the
// last character outside the run (or s-1). Summary: VP<c>\0F.
func rtrim(name string, c byte) Loop {
	return Loop{
		Name:     name,
		FuncName: "loop_fn",
		Category: CatMemoryless,
		Source: fmt.Sprintf(`char *loop_fn(char *s) {
  char *p = s + strlen(s) - 1;
  while (p >= s && *p == %s)
    p--;
  return p;
}`, cLit(c)),
		ExpectSynth:      true,
		ExpectMemoryless: true,
		WantProgram:      "V" + encSet(vocab.OpStrspn, c),
		Ref: func(buf []byte) vocab.Result {
			if buf == nil {
				return vocab.InvalidResult()
			}
			n := 0
			for buf[n] != 0 {
				n++
			}
			i := n - 1
			for i >= 0 && buf[i] == c {
				i--
			}
			return vocab.PtrResult(i)
		},
	}
}

// ---- Synthesisable but conservatively rejected by §3.3 (the paper's
// "change the read value by some constant offset, e.g. in tolower and
// isdigit" loops) ----

// isdigitCall: digit run via ctype call; synthesises with the meta-character
// but fails the syntactic memorylessness conditions (the call offsets the
// read value at the IR level).
func isdigitCall(name string) Loop {
	l := digitSpanCmp(name)
	l.Source = `char *loop_fn(char *s) {
  while (isdigit(*s))
    s++;
  return s;
}`
	l.ExpectMemoryless = false
	return l
}

// isblankCall: blank run via ctype call. Summary: P \t\0F.
func isblankCall(name string) Loop {
	return Loop{
		Name:     name,
		FuncName: "loop_fn",
		Category: CatMemoryless,
		Source: `char *loop_fn(char *s) {
  while (isblank(*s))
    s++;
  return s;
}`,
		ExpectSynth:      true,
		ExpectMemoryless: false,
		WantProgram:      encSet(vocab.OpStrspn, ' ', '\t'),
		Ref: func(buf []byte) vocab.Result {
			if buf == nil {
				return vocab.InvalidResult()
			}
			i := 0
			for buf[i] == ' ' || buf[i] == '\t' {
				i++
			}
			return vocab.PtrResult(i)
		},
	}
}

// digitViaOffset: digit run via the (*s - '0') < 10 idiom — the constant
// offset the paper's verifier rejects.
func digitViaOffset(name string) Loop {
	l := digitSpanCmp(name)
	l.Source = `char *loop_fn(char *s) {
  while ((unsigned char)(*s - '0') < 10)
    s++;
  return s;
}`
	l.ExpectMemoryless = false
	return l
}

// tolowerSetCmp: case-insensitive single-character run: tolower transforms
// the read value (rejected by §3.3) but the set {c, C} synthesises.
func tolowerSetCmp(name string, lower byte) Loop {
	upper := lower - 32
	return Loop{
		Name:     name,
		FuncName: "loop_fn",
		Category: CatMemoryless,
		Source: fmt.Sprintf(`char *loop_fn(char *s) {
  while (tolower(*s) == %s)
    s++;
  return s;
}`, cLit(lower)),
		ExpectSynth:      true,
		ExpectMemoryless: false,
		WantProgram:      encSet(vocab.OpStrspn, lower, upper),
		Ref: func(buf []byte) vocab.Result {
			if buf == nil {
				return vocab.InvalidResult()
			}
			i := 0
			for buf[i] == lower || buf[i] == upper {
				i++
			}
			return vocab.PtrResult(i)
		},
	}
}

// lastCharAccum: strrchr via an accumulator — not memoryless (the paper's
// conditions reject the non-uniform variable), yet equivalent to strrchr and
// synthesised as R<c>F.
func lastCharAccum(name string, c byte) Loop {
	return Loop{
		Name:     name,
		FuncName: "loop_fn",
		Category: CatMemoryless,
		Source: fmt.Sprintf(`char *loop_fn(char *s) {
  char *r = 0;
  while (*s) {
    if (*s == %s)
      r = s;
    s++;
  }
  return r;
}`, cLit(c)),
		ExpectSynth:      true,
		ExpectMemoryless: false,
		WantProgram:      string(byte(vocab.OpStrrchr)) + string(c) + "F",
		Ref: func(buf []byte) vocab.Result {
			if buf == nil {
				return vocab.InvalidResult()
			}
			last := -1
			for i := 0; buf[i] != 0; i++ {
				if buf[i] == c {
					last = i
				}
			}
			if last < 0 {
				return vocab.NullResult()
			}
			return vocab.PtrResult(last)
		},
	}
}

// ---- Memoryless but not synthesised (Table 3's budget/vocabulary misses) ----

// spanFour: a four-character set — the paper's libosip outliers that exceed
// an hour; beyond the default set-size budget here.
func spanFour(name string, a, b, c, d byte) Loop {
	chars := sorted(a, b, c, d)
	return Loop{
		Name:     name,
		FuncName: "loop_fn",
		Category: CatMemoryless,
		Source: fmt.Sprintf(`char *loop_fn(char *s) {
  while (*s == %s || *s == %s || *s == %s || *s == %s)
    s++;
  return s;
}`, cLit(a), cLit(b), cLit(c), cLit(d)),
		ExpectSynth:      false,
		ExpectMemoryless: true,
		WantProgram:      string(byte(vocab.OpStrspn)) + string(chars) + "\x00F",
		Ref: func(buf []byte) vocab.Result {
			if buf == nil {
				return vocab.InvalidResult()
			}
			i := 0
			for buf[i] == a || buf[i] == b || buf[i] == c || buf[i] == d {
				i++
			}
			return vocab.PtrResult(i)
		},
	}
}

// alphaSpan: a letter run — memoryless, but 52 characters have no
// meta-character, so no program of size <= 9 exists.
func alphaSpan(name string) Loop {
	return Loop{
		Name:     name,
		FuncName: "loop_fn",
		Category: CatMemoryless,
		Source: `char *loop_fn(char *s) {
  while ((*s >= 'a' && *s <= 'z') || (*s >= 'A' && *s <= 'Z'))
    s++;
  return s;
}`,
		ExpectSynth:      false,
		ExpectMemoryless: true,
		Ref: func(buf []byte) vocab.Result {
			if buf == nil {
				return vocab.InvalidResult()
			}
			i := 0
			for (buf[i] >= 'a' && buf[i] <= 'z') || (buf[i] >= 'A' && buf[i] <= 'Z') {
				i++
			}
			return vocab.PtrResult(i)
		},
	}
}

// ---- Neither synthesisable nor memoryless ----

// midReturn: returns the middle of the string — no gadget program computes
// division, and the return is not p0 + iterations.
func midReturn(name string) Loop {
	return Loop{
		Name:     name,
		FuncName: "loop_fn",
		Category: CatMemoryless,
		Source: `char *loop_fn(char *s) {
  int n = 0;
  while (s[n]) n++;
  return s + n / 2;
}`,
		ExpectSynth:      false,
		ExpectMemoryless: false,
		Ref: func(buf []byte) vocab.Result {
			if buf == nil {
				return vocab.InvalidResult()
			}
			n := 0
			for buf[n] != 0 {
				n++
			}
			return vocab.PtrResult(n / 2)
		},
	}
}

// lookahead: decisions read s[i] and s[i+1] — two positions per iteration.
func lookahead(name string, c byte) Loop {
	return Loop{
		Name:     name,
		FuncName: "loop_fn",
		Category: CatMemoryless,
		Source: fmt.Sprintf(`char *loop_fn(char *s) {
  int i = 0;
  while (s[i] && s[i + 1] == %s)
    i++;
  return s + i;
}`, cLit(c)),
		ExpectSynth:      false,
		ExpectMemoryless: false,
		Ref: func(buf []byte) vocab.Result {
			if buf == nil {
				return vocab.InvalidResult()
			}
			i := 0
			for buf[i] != 0 && i+1 < len(buf) && buf[i+1] == c {
				i++
			}
			return vocab.PtrResult(i)
		},
	}
}

// firstCharRun: remembers the first character — the canonical memoryful
// loop.
func firstCharRun(name string) Loop {
	return Loop{
		Name:     name,
		FuncName: "loop_fn",
		Category: CatMemoryless,
		Source: `char *loop_fn(char *s) {
  int i = 1;
  if (*s == 0)
    return s;
  while (s[i] == s[0])
    i++;
  return s + i;
}`,
		ExpectSynth:      false,
		ExpectMemoryless: false,
		Ref: func(buf []byte) vocab.Result {
			if buf == nil {
				return vocab.InvalidResult()
			}
			if buf[0] == 0 {
				return vocab.PtrResult(0)
			}
			i := 1
			for i < len(buf) && buf[i] == buf[0] {
				i++
			}
			return vocab.PtrResult(i)
		},
	}
}

// strideTwo: steps by two — violates the uniform ±1 condition.
func strideTwo(name string, c byte) Loop {
	return Loop{
		Name:     name,
		FuncName: "loop_fn",
		Category: CatMemoryless,
		Source: fmt.Sprintf(`char *loop_fn(char *s) {
  int i = 0;
  while (s[i] == %s)
    i = i + 2;
  return s + i;
}`, cLit(c)),
		ExpectSynth:      false,
		ExpectMemoryless: false,
		Ref: func(buf []byte) vocab.Result {
			if buf == nil {
				return vocab.InvalidResult()
			}
			i := 0
			for i < len(buf) && buf[i] == c {
				i += 2
			}
			if i >= len(buf) {
				return vocab.InvalidResult()
			}
			return vocab.PtrResult(i)
		},
	}
}
