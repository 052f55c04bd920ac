package driver_test

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"regpromo/internal/bench"
	"regpromo/internal/driver"
	"regpromo/internal/ir"
)

// positioned matches a diagnostic's "f.c:<line>:<col>: " prefix.
var positioned = regexp.MustCompile(`^f\.c:([1-9][0-9]*):[1-9][0-9]*: `)

// FuzzFrontEnd feeds arbitrary text to the front end (lexer, parser,
// sema, irgen). Every input must either be rejected with a diagnostic
// positioned on one of its lines or yield a module that passes the IL
// verifier; a panic or an unpositioned error is a bug. Run it with
//
//	go test -run '^$' -fuzz FuzzFrontEnd -fuzztime 60s ./internal/driver
//
// Crashers it finds belong in testdata/fuzz/FuzzFrontEnd, where plain
// go test replays them.
func FuzzFrontEnd(f *testing.F) {
	for _, p := range bench.Suite() {
		f.Add(bench.Source(p))
	}
	for _, tc := range diagGolden {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fe, err := driver.ParseSource("f.c", src)
		if err != nil {
			m := positioned.FindStringSubmatch(err.Error())
			if m == nil {
				t.Fatalf("diagnostic without a f.c:line:col: prefix: %q", err)
			}
			if line, _ := strconv.Atoi(m[1]); line > strings.Count(src, "\n")+1 {
				t.Fatalf("diagnostic past the last line: %q", err)
			}
			return
		}
		if err := ir.VerifyModule(fe.NewModule()); err != nil {
			t.Fatalf("front end produced invalid IL: %v", err)
		}
	})
}
