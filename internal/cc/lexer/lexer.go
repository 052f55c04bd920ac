// Package lexer tokenizes C-subset source text into the token stream
// the recursive-descent parser consumes. It handles the subset's full
// lexical grammar — identifiers and keywords, integer, floating,
// character, and string literals (with the usual escape sequences),
// every multi-character operator, and both comment forms — and
// reports each token with its byte offset, recording line starts in a
// token.File so front-end errors point at file:line:col.
package lexer

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"regpromo/internal/cc/token"
)

// Error is a lexical error with a source position.
type Error struct {
	Pos token.Position
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans one source file. It tracks only its byte offset; the
// line table in its token.File grows by one entry per newline.
type Lexer struct {
	src  string
	file *token.File
	off  int
}

// New returns a lexer over src; file names positions in diagnostics.
func New(file, src string) *Lexer {
	return &Lexer{src: src, file: token.NewFile(file)}
}

// File is the line table positions of this lexer's tokens resolve
// against. It covers the source scanned so far.
func (l *Lexer) File() *token.File { return l.file }

// Tokenize scans the entire input, returning the token stream ending
// in an EOF token and the file its positions resolve against.
func Tokenize(file, src string) ([]token.Token, *token.File, error) {
	lx := New(file, src)
	var toks []token.Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, nil, err
		}
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks, lx.file, nil
		}
	}
}

func (l *Lexer) pos() token.Pos { return token.Pos(l.off) }

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) error {
	return &Error{Pos: l.file.Position(pos), Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

// advance consumes one byte, recording a line start after a newline.
// The identifier, number and whitespace loops step l.off themselves.
func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.file.AddLine(l.off)
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		switch c := l.src[l.off]; {
		case c == ' ' || c == '\t' || c == '\r':
			l.off++
		case c == '\n':
			l.off++
			l.file.AddLine(l.off)
		case c == '/' && l.peek2() == '/':
			if i := strings.IndexByte(l.src[l.off:], '\n'); i >= 0 {
				l.off += i
			} else {
				l.off = len(l.src)
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			end := strings.Index(l.src[l.off+2:], "*/")
			if end < 0 {
				return l.errorf(start, "unterminated block comment")
			}
			end += l.off + 4
			for l.off < end {
				l.advance()
			}
		case c == '#':
			// Preprocessor lines (e.g. #define used as commentary
			// in the benchmark sources) are not supported; the
			// bench sources avoid them. Treat as an error so
			// mistakes surface early.
			return l.errorf(l.pos(), "preprocessor directives are not supported")
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdent(c byte) bool { return isIdentStart(c) || c >= '0' && c <= '9' }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token.
func (l *Lexer) Next() (token.Token, error) {
	if len(l.src) > token.MaxSize {
		return token.Token{}, l.errorf(0, "source file larger than %d bytes", token.MaxSize)
	}
	if err := l.skipSpaceAndComments(); err != nil {
		return token.Token{}, err
	}
	pos := l.pos()
	if l.off >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: pos}, nil
	}
	c := l.src[l.off]
	switch {
	case isIdentStart(c):
		start := l.off
		l.off++
		for l.off < len(l.src) && isIdent(l.src[l.off]) {
			l.off++
		}
		text := l.src[start:l.off]
		return token.Token{Kind: token.Lookup(text), Pos: pos, Text: text}, nil
	case isDigit(c), c == '.' && isDigit(l.peek2()):
		return l.number(pos)
	case c == '\'':
		return l.charLit(pos)
	case c == '"':
		return l.stringLit(pos)
	}
	return l.operator(pos)
}

func (l *Lexer) number(pos token.Pos) (token.Token, error) {
	start := l.off
	isFloat := false
	if l.peek() == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
		l.off += 2
		for l.off < len(l.src) && isHex(l.peek()) {
			l.off++
		}
		v, err := strconv.ParseUint(l.src[start+2:l.off], 16, 64)
		if err != nil {
			return token.Token{}, l.errorf(pos, "bad hex literal %q", l.src[start:l.off])
		}
		l.skipIntSuffix()
		return token.Token{Kind: token.IntLit, Pos: pos, Int: int64(v), Text: l.src[start:l.off]}, nil
	}
	for l.off < len(l.src) && isDigit(l.peek()) {
		l.off++
	}
	if l.peek() == '.' {
		isFloat = true
		l.off++
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.off++
		}
	}
	if l.peek() == 'e' || l.peek() == 'E' {
		if n := l.peek2(); isDigit(n) || ((n == '+' || n == '-') && l.off+2 < len(l.src) && isDigit(l.src[l.off+2])) {
			isFloat = true
			l.off++
			if l.peek() == '+' || l.peek() == '-' {
				l.off++
			}
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.off++
			}
		}
	}
	text := l.src[start:l.off]
	if isFloat {
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token.Token{}, l.errorf(pos, "bad float literal %q", text)
		}
		return token.Token{Kind: token.FloatLit, Pos: pos, Text: text, Int: int64(math.Float64bits(v))}, nil
	}
	v, err := strconv.ParseUint(text, 10, 64)
	if err != nil {
		return token.Token{}, l.errorf(pos, "bad integer literal %q", text)
	}
	l.skipIntSuffix()
	return token.Token{Kind: token.IntLit, Pos: pos, Int: int64(v), Text: text}, nil
}

// skipIntSuffix consumes C integer suffixes (u, l, ul, …), which the
// subset accepts and ignores.
func (l *Lexer) skipIntSuffix() {
	for l.off < len(l.src) {
		switch l.peek() {
		case 'u', 'U', 'l', 'L':
			l.off++
		default:
			return
		}
	}
}

func isHex(c byte) bool {
	return isDigit(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func (l *Lexer) escape(pos token.Pos) (byte, error) {
	if l.off >= len(l.src) {
		return 0, l.errorf(pos, "unterminated escape")
	}
	c := l.advance()
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\', '\'', '"':
		return c, nil
	case 'b':
		return '\b', nil
	case 'a':
		return 7, nil
	case 'f':
		return '\f', nil
	case 'v':
		return '\v', nil
	}
	return 0, l.errorf(pos, "unsupported escape \\%c", c)
}

func (l *Lexer) charLit(pos token.Pos) (token.Token, error) {
	l.advance() // consume '
	if l.off >= len(l.src) {
		return token.Token{}, l.errorf(pos, "unterminated char literal")
	}
	var v byte
	c := l.advance()
	if c == '\\' {
		e, err := l.escape(pos)
		if err != nil {
			return token.Token{}, err
		}
		v = e
	} else {
		v = c
	}
	if l.off >= len(l.src) || l.advance() != '\'' {
		return token.Token{}, l.errorf(pos, "unterminated char literal")
	}
	return token.Token{Kind: token.CharLit, Pos: pos, Int: int64(v)}, nil
}

func (l *Lexer) stringLit(pos token.Pos) (token.Token, error) {
	var sb strings.Builder
	for {
		l.advance() // consume "
		for {
			if l.off >= len(l.src) {
				return token.Token{}, l.errorf(pos, "unterminated string literal")
			}
			c := l.advance()
			if c == '"' {
				break
			}
			if c == '\n' {
				return token.Token{}, l.errorf(pos, "newline in string literal")
			}
			if c == '\\' {
				e, err := l.escape(pos)
				if err != nil {
					return token.Token{}, err
				}
				sb.WriteByte(e)
				continue
			}
			sb.WriteByte(c)
		}
		// Adjacent string literals concatenate, as in C.
		if err := l.skipSpaceAndComments(); err != nil {
			return token.Token{}, err
		}
		if l.peek() != '"' {
			break
		}
	}
	return token.Token{Kind: token.StringLit, Pos: pos, Text: sb.String()}, nil
}

func (l *Lexer) operator(pos token.Pos) (token.Token, error) {
	mk := func(k token.Kind, n int) (token.Token, error) {
		l.off += n
		return token.Token{Kind: k, Pos: pos}, nil
	}
	c, c2 := l.peek(), l.peek2()
	var c3 byte
	if l.off+2 < len(l.src) {
		c3 = l.src[l.off+2]
	}
	switch c {
	case '(':
		return mk(token.LParen, 1)
	case ')':
		return mk(token.RParen, 1)
	case '{':
		return mk(token.LBrace, 1)
	case '}':
		return mk(token.RBrace, 1)
	case '[':
		return mk(token.LBracket, 1)
	case ']':
		return mk(token.RBracket, 1)
	case ';':
		return mk(token.Semi, 1)
	case ',':
		return mk(token.Comma, 1)
	case '?':
		return mk(token.Question, 1)
	case ':':
		return mk(token.Colon, 1)
	case '~':
		return mk(token.Tilde, 1)
	case '.':
		if c2 == '.' && c3 == '.' {
			return mk(token.Ellipsis, 3)
		}
		return mk(token.Dot, 1)
	case '+':
		switch c2 {
		case '+':
			return mk(token.Inc, 2)
		case '=':
			return mk(token.PlusAssign, 2)
		}
		return mk(token.Plus, 1)
	case '-':
		switch c2 {
		case '-':
			return mk(token.Dec, 2)
		case '=':
			return mk(token.MinusAssign, 2)
		case '>':
			return mk(token.Arrow, 2)
		}
		return mk(token.Minus, 1)
	case '*':
		if c2 == '=' {
			return mk(token.StarAssign, 2)
		}
		return mk(token.Star, 1)
	case '/':
		if c2 == '=' {
			return mk(token.SlashAssign, 2)
		}
		return mk(token.Slash, 1)
	case '%':
		if c2 == '=' {
			return mk(token.PercentAssign, 2)
		}
		return mk(token.Percent, 1)
	case '=':
		if c2 == '=' {
			return mk(token.Eq, 2)
		}
		return mk(token.Assign, 1)
	case '!':
		if c2 == '=' {
			return mk(token.NotEq, 2)
		}
		return mk(token.Not, 1)
	case '<':
		if c2 == '<' {
			if c3 == '=' {
				return mk(token.ShlAssign, 3)
			}
			return mk(token.Shl, 2)
		}
		if c2 == '=' {
			return mk(token.Le, 2)
		}
		return mk(token.Lt, 1)
	case '>':
		if c2 == '>' {
			if c3 == '=' {
				return mk(token.ShrAssign, 3)
			}
			return mk(token.Shr, 2)
		}
		if c2 == '=' {
			return mk(token.Ge, 2)
		}
		return mk(token.Gt, 1)
	case '&':
		if c2 == '&' {
			return mk(token.AndAnd, 2)
		}
		if c2 == '=' {
			return mk(token.AndAssign, 2)
		}
		return mk(token.And, 1)
	case '|':
		if c2 == '|' {
			return mk(token.OrOr, 2)
		}
		if c2 == '=' {
			return mk(token.OrAssign, 2)
		}
		return mk(token.Or, 1)
	case '^':
		if c2 == '=' {
			return mk(token.XorAssign, 2)
		}
		return mk(token.Xor, 1)
	}
	return token.Token{}, l.errorf(pos, "unexpected character %q", c)
}
