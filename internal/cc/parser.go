package cc

import (
	"errors"
	"fmt"
)

// maxNesting bounds the parser's recursion: statements nested in
// statements, and expressions nested in expressions through parentheses,
// assignments, conditionals and unary operators. Each level is a few
// goroutine stack frames, and without a bound a deeply nested source grows
// the stack until the process dies. A parenthesis level counts two levels
// (an assignment and a unary expression), a nested statement one. The
// deepest corpus loop nests 10 levels, the deepest summary C 7 and the
// deepest differential-fuzzing source (seeds 1 to 3000) 8; 256 levels leave
// room for any hand-written C while keeping the parser's stack under a
// megabyte.
const maxNesting = 256

// ErrNestingTooDeep reports a source nested past maxNesting.
var ErrNestingTooDeep = errors.New("cc: nesting too deep")

// Parse preprocesses, lexes and parses a C translation unit in the supported
// subset, returning its AST.
func Parse(src string) (*File, error) {
	toks, err := Preprocess(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	file := &File{}
	for !p.atEOF() {
		fn, err := p.parseFunc()
		if err != nil {
			return nil, err
		}
		if fn != nil {
			file.Funcs = append(file.Funcs, fn)
		}
	}
	return file, nil
}

type parser struct {
	toks  []Token
	pos   int
	depth int // recursive productions now entered (see enter)
}

// enter opens one level of a recursive production; the caller defers leave.
// Past maxNesting it fails with ErrNestingTooDeep.
func (p *parser) enter() error {
	p.depth++
	if p.depth > maxNesting {
		return fmt.Errorf("%w: %s: more than %d levels", ErrNestingTooDeep, p.cur().Pos(), maxNesting)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) atEOF() bool { return p.pos >= len(p.toks) }

// eof is the token past the last; the parser never writes it.
var eof = Token{Kind: TEOF}

// cur returns the current token, which the parser must not modify.
func (p *parser) cur() *Token {
	if p.atEOF() {
		return &eof
	}
	return &p.toks[p.pos]
}

func (p *parser) next() *Token {
	t := p.cur()
	p.pos++
	return t
}

func (p *parser) isPunct(text string) bool {
	t := p.cur()
	return t.Kind == TPunct && t.Text == text
}

func (p *parser) isKeyword(text string) bool {
	t := p.cur()
	return t.Kind == TKeyword && t.Text == text
}

func (p *parser) accept(text string) bool {
	if p.isPunct(text) || p.isKeyword(text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if p.accept(text) {
		return nil
	}
	return fmt.Errorf("cc: %s: expected %q, found %q", p.cur().Pos(), text, p.cur().String())
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("cc: %s: %s", p.cur().Pos(), fmt.Sprintf(format, args...))
}

// atTypeName reports whether the current token begins a type.
func (p *parser) atTypeName() bool {
	t := p.cur()
	if t.Kind == TKeyword || t.Kind == TIdent {
		return IsTypeName(t.Text)
	}
	return false
}

// parseType parses a type specifier (base keywords plus '*' declarator
// pointers are handled by the caller per declarator).
func (p *parser) parseBaseType() (Type, error) {
	ty := Type{Base: TyInt}
	seenBase := false
	seenAny := false
	for {
		t := p.cur()
		if t.Kind != TKeyword && !(t.Kind == TIdent && IsTypeName(t.Text)) {
			break
		}
		switch t.Text {
		case "const", "volatile", "register":
			// qualifiers: ignored
		case "unsigned":
			ty.Unsigned = true
		case "signed":
			ty.Unsigned = false
		case "void":
			ty.Base = TyVoid
			seenBase = true
		case "char":
			ty.Base = TyChar
			seenBase = true
		case "int":
			if !seenBase {
				ty.Base = TyInt
			}
			seenBase = true
		case "long":
			ty.Base = TyLong
			seenBase = true
		case "short":
			ty.Base = TyShort
			seenBase = true
		case "size_t":
			ty.Base = TyLong
			ty.Unsigned = true
			seenBase = true
		case "ssize_t":
			ty.Base = TyLong
			seenBase = true
		default:
			if !seenAny {
				return ty, p.errf("expected type, found %q", t.Text)
			}
			return ty, nil
		}
		seenAny = true
		p.pos++
	}
	if !seenAny {
		return ty, p.errf("expected type, found %q", p.cur().String())
	}
	return ty, nil
}

// parsePointers consumes '*' (and interleaved const) returning the depth.
func (p *parser) parsePointers() int {
	depth := 0
	for {
		if p.accept("*") {
			depth++
			continue
		}
		if p.isKeyword("const") || p.isKeyword("volatile") {
			p.pos++
			continue
		}
		return depth
	}
}

func (p *parser) parseFunc() (*FuncDecl, error) {
	// Skip storage-class keywords.
	for p.isKeyword("static") || p.isKeyword("inline") || p.isKeyword("extern") {
		p.pos++
	}
	ret, err := p.parseBaseType()
	if err != nil {
		return nil, err
	}
	ret.Ptr = p.parsePointers()
	nameTok := p.next()
	if nameTok.Kind != TIdent {
		return nil, fmt.Errorf("cc: %s: expected function name, found %q", nameTok.Pos(), nameTok.String())
	}
	fn := &FuncDecl{Name: nameTok.Text, Ret: ret}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	if !p.isPunct(")") {
		if p.isKeyword("void") && p.pos+1 < len(p.toks) && p.toks[p.pos+1].Kind == TPunct && p.toks[p.pos+1].Text == ")" {
			p.pos++ // f(void)
		} else {
			for {
				ty, err := p.parseBaseType()
				if err != nil {
					return nil, err
				}
				ty.Ptr = p.parsePointers()
				pn := p.next()
				if pn.Kind != TIdent {
					return nil, fmt.Errorf("cc: %s: expected parameter name", pn.Pos())
				}
				fn.Params = append(fn.Params, Param{Name: pn.Text, Type: ty})
				if !p.accept(",") {
					break
				}
			}
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if p.accept(";") {
		// Prototype: record nothing (bodies drive every analysis here).
		return nil, nil
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *parser) parseBlock() (*Block, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	b := &Block{}
	for !p.isPunct("}") {
		if p.atEOF() {
			return nil, p.errf("unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.pos++ // '}'
	return b, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	switch {
	case p.isPunct(";"):
		p.pos++
		return &EmptyStmt{}, nil
	case p.isPunct("{"):
		return p.parseBlock()
	case p.isKeyword("if"):
		return p.parseIf()
	case p.isKeyword("while"):
		p.pos++
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &While{Cond: cond, Body: body}, nil
	case p.isKeyword("do"):
		p.pos++
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expect("while"); err != nil {
			return nil, err
		}
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &DoWhile{Body: body, Cond: cond}, nil
	case p.isKeyword("for"):
		return p.parseFor()
	case p.isKeyword("return"):
		p.pos++
		if p.accept(";") {
			return &Return{}, nil
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &Return{X: x}, nil
	case p.isKeyword("break"):
		p.pos++
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &Break{}, nil
	case p.isKeyword("continue"):
		p.pos++
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &Continue{}, nil
	case p.isKeyword("goto"):
		p.pos++
		lbl := p.next()
		if lbl.Kind != TIdent {
			return nil, p.errf("expected label after goto")
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &Goto{Label: lbl.Text}, nil
	case p.atTypeName() || p.isKeyword("const"):
		return p.parseDeclStmt()
	case t.Kind == TIdent && p.pos+1 < len(p.toks) &&
		p.toks[p.pos+1].Kind == TPunct && p.toks[p.pos+1].Text == ":":
		// Labeled statement.
		p.pos += 2
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &Labeled{Label: t.Text, Stmt: s}, nil
	default:
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ExprStmt{X: x}, nil
	}
}

func (p *parser) parseIf() (Stmt, error) {
	p.pos++ // if
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	then, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	st := &If{Cond: cond, Then: then}
	if p.isKeyword("else") {
		p.pos++
		els, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st.Else = els
	}
	return st, nil
}

func (p *parser) parseFor() (Stmt, error) {
	p.pos++ // for
	if err := p.expect("("); err != nil {
		return nil, err
	}
	st := &For{}
	if !p.isPunct(";") {
		if p.atTypeName() || p.isKeyword("const") {
			decl, err := p.parseDeclStmt()
			if err != nil {
				return nil, err
			}
			st.Init = decl
		} else {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Init = &ExprStmt{X: x}
			if err := p.expect(";"); err != nil {
				return nil, err
			}
		}
	} else {
		p.pos++
	}
	if !p.isPunct(";") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Cond = cond
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	if !p.isPunct(")") {
		post, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Post = post
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	st.Body = body
	return st, nil
}

// parseDeclStmt parses a declaration statement (consuming the trailing ';').
func (p *parser) parseDeclStmt() (*DeclStmt, error) {
	base, err := p.parseBaseType()
	if err != nil {
		return nil, err
	}
	d := &DeclStmt{}
	for {
		ty := base
		ty.Ptr = p.parsePointers()
		nameTok := p.next()
		if nameTok.Kind != TIdent {
			return nil, fmt.Errorf("cc: %s: expected declarator name, found %q", nameTok.Pos(), nameTok.String())
		}
		vd := &VarDecl{Name: nameTok.Text, Type: ty}
		if p.accept("=") {
			init, err := p.parseAssign() // no comma operator inside initialisers
			if err != nil {
				return nil, err
			}
			vd.Init = init
		}
		d.Decls = append(d.Decls, vd)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return d, nil
}

// ---- Expression parsing (precedence climbing) ----

// parseExpr parses a full expression including the comma operator.
func (p *parser) parseExpr() (Expr, error) {
	e, err := p.parseAssign()
	if err != nil {
		return nil, err
	}
	for p.isPunct(",") {
		p.pos++
		r, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		e = &Binary{Op: ",", L: e, R: r}
	}
	return e, nil
}

func isAssignOp(op string) bool {
	switch op {
	case "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=":
		return true
	}
	return false
}

func (p *parser) parseAssign() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	l, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == TPunct && isAssignOp(t.Text) {
		p.pos++
		r, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		return &Assign{Op: t.Text, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseCond() (Expr, error) {
	c, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if !p.accept("?") {
		return c, nil
	}
	thenE, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(":"); err != nil {
		return nil, err
	}
	elseE, err := p.parseAssign()
	if err != nil {
		return nil, err
	}
	return &Cond{C: c, T: thenE, F: elseE}, nil
}

// binaryLevel returns the precedence level of t as a binary operator, from
// 0 for || up to 9 for * / %, or -1 if it is none.
func binaryLevel(t *Token) int {
	if t.Kind != TPunct {
		return -1
	}
	switch t.Text {
	case "||":
		return 0
	case "&&":
		return 1
	case "|":
		return 2
	case "^":
		return 3
	case "&":
		return 4
	case "==", "!=":
		return 5
	case "<", ">", "<=", ">=":
		return 6
	case "<<", ">>":
		return 7
	case "+", "-":
		return 8
	case "*", "/", "%":
		return 9
	}
	return -1
}

// parseBinary parses a chain of binary operators of level lowest or above, by
// precedence climbing: every operator is left-associative, so the right
// operand of one at level k holds only operators above k.
func (p *parser) parseBinary(lowest int) (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		level := binaryLevel(t)
		if level < lowest {
			return l, nil
		}
		p.pos++
		r, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: t.Text, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	if t.Kind == TPunct {
		switch t.Text {
		case "-", "!", "~", "*", "&", "+":
			p.pos++
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			if t.Text == "+" {
				return x, nil
			}
			return &Unary{Op: t.Text, X: x}, nil
		case "++", "--":
			p.pos++
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &Unary{Op: t.Text, X: x}, nil
		case "(":
			// Cast or parenthesised expression.
			save := p.pos
			p.pos++
			if p.atTypeName() || p.isKeyword("const") {
				ty, err := p.parseBaseType()
				if err == nil {
					ty.Ptr = p.parsePointers()
					if p.accept(")") {
						x, err := p.parseUnary()
						if err != nil {
							return nil, err
						}
						return &Cast{To: ty, X: x}, nil
					}
				}
			}
			p.pos = save
		}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.isPunct("["):
			p.pos++
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			e = &Index{Base: e, Idx: idx}
		case p.isPunct("++"):
			p.pos++
			e = &Postfix{Op: "++", X: e}
		case p.isPunct("--"):
			p.pos++
			e = &Postfix{Op: "--", X: e}
		default:
			return e, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.next()
	switch t.Kind {
	case TNumber:
		return &IntLit{Val: t.Num}, nil
	case TChar:
		return &CharLit{Val: byte(t.Num)}, nil
	case TString:
		return &StringLit{Val: t.Str}, nil
	case TIdent:
		if p.isPunct("(") {
			p.pos++
			call := &Call{Name: t.Text}
			if !p.isPunct(")") {
				for {
					a, err := p.parseAssign()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if !p.accept(",") {
						break
					}
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		return &Ident{Name: t.Text}, nil
	case TPunct:
		if t.Text == "(" {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case TKeyword:
		if t.Text == "sizeof" {
			// sizeof(type) or sizeof expr: evaluate to a constant using the
			// usual LP64 sizes. Only sizeof(char) appears in practice.
			if p.accept("(") {
				if p.atTypeName() {
					ty, err := p.parseBaseType()
					if err != nil {
						return nil, err
					}
					ty.Ptr = p.parsePointers()
					if err := p.expect(")"); err != nil {
						return nil, err
					}
					return &IntLit{Val: sizeOf(ty)}, nil
				}
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				_ = e
				return &IntLit{Val: 1}, nil
			}
		}
	}
	return nil, fmt.Errorf("cc: %s: unexpected token %q", t.Pos(), t.String())
}

func sizeOf(ty Type) int64 {
	if ty.Ptr > 0 {
		return 8
	}
	switch ty.Base {
	case TyChar:
		return 1
	case TyShort:
		return 2
	case TyInt:
		return 4
	case TyLong:
		return 8
	}
	return 1
}
