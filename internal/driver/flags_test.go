package driver

import (
	"flag"
	"io"
	"reflect"
	"testing"
)

// TestCompileFlags is the table over the argument lists rpcc and
// rpexec share: each flag lands in its Config field, -pointerpromo
// implies -promote, and an unknown -analysis is an error naming the
// value.
func TestCompileFlags(t *testing.T) {
	cases := []struct {
		args     []string
		want     Config
		trace    bool
		traceOut string
		wantErr  string
	}{
		{args: nil, want: Config{}},
		{args: []string{"-promote"}, want: Config{Promote: true}},
		{args: []string{"-pointerpromo"}, want: Config{Promote: true, PointerPromote: true}},
		{args: []string{"-analysis", "modref"}, want: Config{Analysis: ModRef}},
		{args: []string{"-analysis", "pointer"}, want: Config{Analysis: PointsTo}},
		{args: []string{"-analysis", "bogus"}, wantErr: `unknown analysis "bogus" (want modref or pointer)`},
		{
			args: []string{"-k", "8", "-throttle", "4", "-dse", "-noopt", "-noalloc", "-certify"},
			want: Config{K: 8, Throttle: 4, DSE: true, DisableOpt: true, NoAlloc: true, Certify: true},
		},
		{args: []string{"-trace", "-trace-out", "t.json"}, want: Config{}, trace: true, traceOut: "t.json"},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := RegisterCompileFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%q: parse: %v", c.args, err)
		}
		got, err := f.Config()
		if c.wantErr != "" {
			if err == nil || err.Error() != c.wantErr {
				t.Errorf("%q: error = %v, want %q", c.args, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.args, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%q: config = %+v, want %+v", c.args, got, c.want)
		}
		if f.Trace != c.trace || f.TraceOut != c.traceOut {
			t.Errorf("%q: trace = %v, %q, want %v, %q", c.args, f.Trace, f.TraceOut, c.trace, c.traceOut)
		}
	}
}
