package native_test

import (
	"bytes"
	"go/parser"
	"go/token"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"regpromo/internal/bench"
	"regpromo/internal/driver"
	"regpromo/internal/interp"
	"regpromo/internal/native"
)

// These tests hold the native backend to the engine parity contract:
// byte-identical output, exit status, error text, and dynamic counts
// against the flat engine (itself pinned to the switch oracle by
// internal/difftest). The subprocess backend is forced for the bulk
// of the suite — it works everywhere, including -race test hosts
// where plugin.Open fails — and plugin mode gets one dedicated test
// that skips when the platform lacks support.

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "regpromo-native-test")
	if err != nil {
		panic(err)
	}
	os.Setenv("REGPROMO_NATIVE_CACHE", dir)
	native.SetDefaultBackend(native.BackendSubprocess)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// compile builds src under the given configuration.
func compile(t *testing.T, src string, cfg driver.Config) *driver.Compilation {
	t.Helper()
	c, err := driver.CompileSource("test.c", src, cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

// runBoth executes one compilation on the flat and native engines and
// reports any observable difference.
func runBoth(t *testing.T, label string, c *driver.Compilation, maxSteps int64) {
	t.Helper()
	flat, ferr := c.Execute(interp.Options{MaxSteps: maxSteps, Engine: interp.EngineFlat})
	nat, nerr := c.Execute(interp.Options{MaxSteps: maxSteps, Engine: interp.EngineNative})
	switch {
	case ferr != nil && nerr != nil:
		if ferr.Error() != nerr.Error() {
			t.Fatalf("%s: error divergence: flat %q, native %q", label, ferr, nerr)
		}
		return
	case ferr != nil || nerr != nil:
		t.Fatalf("%s: one engine failed: flat err=%v, native err=%v", label, ferr, nerr)
	}
	if flat.Counts != nat.Counts {
		t.Fatalf("%s: counts diverge: flat %+v, native %+v", label, flat.Counts, nat.Counts)
	}
	if flat.Exit != nat.Exit {
		t.Fatalf("%s: exit diverges: flat %d, native %d", label, flat.Exit, nat.Exit)
	}
	if flat.Output != nat.Output {
		t.Fatalf("%s: output diverges: flat %q, native %q", label, flat.Output, nat.Output)
	}
}

// parityPrograms exercise the codegen surface: globals and locals,
// arrays and pointer arithmetic, direct and indirect control flow,
// malloc'd memory, doubles, every print intrinsic, and recursion.
var parityPrograms = []struct {
	name string
	src  string
}{
	{"arith", `
int main(void) {
	int i;
	int acc;
	acc = 7;
	for (i = 1; i < 50; i++) {
		acc = acc * 3 + i;
		acc = acc % 100003;
		acc = acc - (acc / 7);
		acc = acc ^ (acc << 3);
		acc = acc & 16777215;
	}
	print_int(acc);
	return acc & 63;
}`},
	{"memory", `
int g[64];
int sum;
int main(void) {
	int i;
	int *p;
	p = (int *)malloc(64 * sizeof(int));
	for (i = 0; i < 64; i++) {
		g[i] = i * i;
		p[i] = g[i] + i;
	}
	for (i = 0; i < 64; i++)
		sum = sum + p[i] - g[63 - i];
	print_int(sum);
	free(p);
	return sum & 63;
}`},
	{"calls", `
int depth;
int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
int twice(int x) { return x + x; }
int main(void) {
	int (*f)(int);
	int v;
	f = twice;
	v = fib(15) + f(21);
	print_int(v);
	print_char(10);
	return v & 63;
}`},
	{"doubles", `
double scale;
double mix(double a, double b) { return a * 0.5 + b * 0.25; }
int main(void) {
	double x;
	int i;
	scale = 1.5;
	x = 0.0;
	for (i = 0; i < 20; i++)
		x = mix(x, scale * i) + 0.125;
	print_double(x);
	print_str("done\n");
	return (int)x;
}`},
	{"strings", `
char buf[16];
int main(void) {
	int i;
	for (i = 0; i < 15; i++)
		buf[i] = 'a' + (char)(i % 26);
	print_str(buf);
	print_char('\n');
	print_str("tail");
	print_char(10);
	return buf[3];
}`},
}

// parityConfigs is the configuration slice the parity tests cover:
// the straight lowering, the paper's strongest pipeline, and the
// throttled allocator (to force spill slots into the frame array).
func parityConfigs() []driver.NamedConfig {
	return []driver.NamedConfig{
		{Name: "ref-noopt", Config: driver.Config{Analysis: driver.ModRef, DisableOpt: true, NoAlloc: true}},
		{Name: "promote-pointer", Config: driver.Config{Analysis: driver.PointsTo, Promote: true, PointerPromote: true}},
		{Name: "throttle-k8", Config: driver.Config{Analysis: driver.ModRef, Promote: true, Throttle: 8, K: 8}},
	}
}

func TestNativeParity(t *testing.T) {
	for _, p := range parityPrograms {
		for _, nc := range parityConfigs() {
			c := compile(t, p.src, nc.Config)
			runBoth(t, p.name+"/"+nc.Name, c, 1<<28)
		}
	}
}

// TestNativeErrorParity pins the runtime-fault contract: the native
// engine must fail with byte-identical error text, including the step
// limit firing at the same instruction.
func TestNativeErrorParity(t *testing.T) {
	faults := []struct {
		name     string
		src      string
		maxSteps int64
	}{
		{"div-zero", `
int main(void) {
	int d;
	d = 0;
	print_int(1 / d);
	return 0;
}`, 1 << 28},
		{"rem-zero", `
int main(void) {
	int d;
	d = 0;
	return 7 % d;
}`, 1 << 28},
		{"null-load", `
int main(void) {
	int *p;
	p = (int *)0;
	return *p;
}`, 1 << 28},
		{"wild-store", `
int main(void) {
	int *p;
	p = (int *)12345678;
	*p = 1;
	return 0;
}`, 1 << 28},
		{"stack-overflow", `
int burn(int n) {
	int pad[256];
	pad[0] = n;
	return burn(n + 1) + pad[0];
}
int main(void) { return burn(0); }`, 1 << 28},
		{"step-limit", `
int main(void) {
	int i;
	i = 0;
	for (;;) i++;
	return i;
}`, 10000},
		{"step-limit-tight", `
int main(void) {
	int i;
	int s;
	s = 0;
	for (i = 0; i < 1000; i++) s = s + i;
	print_int(s);
	return 0;
}`, 100},
		{"negative-address-load", `
int main(void) {
	int *p;
	p = (int *)-8;
	return *p;
}`, 1 << 28},
		{"invalid-indirect-call", `
int twice(int x) { return x + x; }
int main(void) {
	int (*f)(int);
	f = (int (*)(int))12345;
	return f(1);
}`, 1 << 28},
		{"negative-indirect-call", `
int twice(int x) { return x + x; }
int main(void) {
	int (*f)(int);
	f = (int (*)(int))-16;
	return f(1);
}`, 1 << 28},
		{"negative-malloc", `
int main(void) {
	int n;
	n = -8;
	return (int)(long)malloc(n);
}`, 1 << 28},
	}
	for _, f := range faults {
		c := compile(t, f.src, driver.Config{Analysis: driver.ModRef, Promote: true})
		flat, ferr := c.Execute(interp.Options{MaxSteps: f.maxSteps, Engine: interp.EngineFlat})
		nat, nerr := c.Execute(interp.Options{MaxSteps: f.maxSteps, Engine: interp.EngineNative})
		if (ferr == nil) != (nerr == nil) {
			t.Fatalf("%s: one engine failed: flat err=%v, native err=%v", f.name, ferr, nerr)
		}
		if ferr != nil {
			if ferr.Error() != nerr.Error() {
				t.Fatalf("%s: error divergence: flat %q, native %q", f.name, ferr, nerr)
			}
			continue
		}
		if flat.Counts != nat.Counts || flat.Exit != nat.Exit || flat.Output != nat.Output {
			t.Fatalf("%s: results diverge: flat %+v exit=%d, native %+v exit=%d",
				f.name, flat.Counts, flat.Exit, nat.Counts, nat.Exit)
		}
	}
}

// TestNativeUnsupportedOptions pins the rejection errors for
// interpreter-only features.
func TestNativeUnsupportedOptions(t *testing.T) {
	c := compile(t, parityPrograms[0].src, driver.Config{Analysis: driver.ModRef})
	for _, tc := range []struct {
		name string
		opts interp.Options
		want string
	}{
		{"profile", interp.Options{Engine: interp.EngineNative, Profile: true}, "profiling is not supported"},
		{"sanitize", interp.Options{Engine: interp.EngineNative, Sanitize: true}, "sanitizer is not supported"},
	} {
		_, err := c.Execute(tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

// TestBuildCacheHit checks that rebuilding an identical program skips
// the toolchain: the second Build for the same source must resolve to
// the same on-disk artifact without error (the hit path).
func TestBuildCacheHit(t *testing.T) {
	c := compile(t, parityPrograms[0].src, driver.Config{Analysis: driver.ModRef})
	p := interpProgram(t, c)
	a1, err := native.Build(p, true, native.Options{Backend: native.BackendSubprocess})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := native.Build(p, true, native.Options{Backend: native.BackendSubprocess})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := a1.Run(interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a2.Run(interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Output != r2.Output || r1.Counts != r2.Counts {
		t.Fatalf("cache hit produced different behaviour: %+v vs %+v", r1, r2)
	}
}

// interpProgram extracts the flat lowering the way the driver does,
// via a throwaway flat execution to force it, then regenerating it
// directly for the Build call.
func interpProgram(t *testing.T, c *driver.Compilation) *interp.Program {
	t.Helper()
	return interp.Flatten(c.Module, false)
}

// TestPluginBackend exercises the in-process path explicitly. Plugin
// support is platform- and build-mode-dependent (absent under -race
// test binaries, among others), so a failed build or load skips
// rather than fails.
func TestPluginBackend(t *testing.T) {
	c := compile(t, parityPrograms[0].src, driver.Config{Analysis: driver.ModRef, Promote: true})
	p := interpProgram(t, c)
	a, err := native.Build(p, true, native.Options{Backend: native.BackendPlugin})
	if err != nil {
		t.Skipf("plugin backend unavailable: %v", err)
	}
	if a.Backend() != native.BackendPlugin {
		t.Fatalf("backend = %v, want plugin", a.Backend())
	}
	nat, err := a.Run(interp.Options{MaxSteps: 1 << 28})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := c.Execute(interp.Options{MaxSteps: 1 << 28, Engine: interp.EngineFlat})
	if err != nil {
		t.Fatal(err)
	}
	if nat.Counts != flat.Counts || nat.Exit != flat.Exit || nat.Output != flat.Output {
		t.Fatalf("plugin run diverges from flat: %+v exit=%d vs %+v exit=%d",
			nat.Counts, nat.Exit, flat.Counts, flat.Exit)
	}
}

// TestNativeSourceImports pins the generated file's dependencies to
// math and strconv: the toolchain builds every further import, and
// everything it pulls in, into each plugin.
func TestNativeSourceImports(t *testing.T) {
	for _, prog := range bench.Suite() {
		for _, cfg := range driver.Configurations() {
			src := interpProgram(t, compile(t, bench.Source(prog), cfg)).NativeSource(true)
			f, err := parser.ParseFile(token.NewFileSet(), prog.File, src, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("%s: %v", prog.Name, err)
			}
			var got []string
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatalf("%s: %v", prog.Name, err)
				}
				got = append(got, path)
			}
			if want := []string{"math", "strconv"}; !slices.Equal(got, want) {
				t.Fatalf("%s %+v: imports %v, want %v", prog.Name, cfg, got, want)
			}
		}
	}
}

// TestCorruptArtifactRebuilds holds the cache to its recorded digest:
// an intact artifact is reused, while a truncated one and one
// overwritten with garbage are each rebuilt rather than served, for
// both the subprocess binary and the plugin. The rebuilt artifact must
// run like the flat engine.
func TestCorruptArtifactRebuilds(t *testing.T) {
	// A program no other test loads as a plugin: a process can load a
	// given plugin only once.
	c := compile(t, parityPrograms[2].src, driver.Config{Analysis: driver.PointsTo, Promote: true})
	p := interpProgram(t, c)
	for _, tc := range []struct {
		name    string
		plugin  bool
		backend native.Backend
	}{
		{"bin", false, native.BackendSubprocess},
		{"so", true, native.BackendPlugin},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ensure := func() (string, os.FileInfo) {
				t.Helper()
				path, err := native.EnsureArtifact(p, tc.plugin, dir)
				if err != nil {
					t.Fatal(err)
				}
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				return path, fi
			}
			path, built := ensure()
			if _, again := ensure(); !os.SameFile(built, again) {
				t.Fatal("an intact artifact was rebuilt")
			}
			for _, corrupt := range []struct {
				name string
				bad  func(good []byte) []byte
			}{
				{"truncated", func(good []byte) []byte { return good[:len(good)/2] }},
				{"garbage", func(good []byte) []byte { return bytes.Repeat([]byte("garbage\n"), len(good)/8) }},
			} {
				good, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				bad := corrupt.bad(good)
				if err := os.WriteFile(path, bad, 0o755); err != nil {
					t.Fatal(err)
				}
				_, rebuilt := ensure()
				if got, err := os.ReadFile(path); err != nil || bytes.Equal(got, bad) {
					t.Fatalf("%s artifact served from the cache (err=%v)", corrupt.name, err)
				}
				if _, again := ensure(); !os.SameFile(rebuilt, again) {
					t.Fatalf("the artifact rebuilt after a %s one fails its own digest", corrupt.name)
				}
			}
			a, err := native.Build(p, true, native.Options{Backend: tc.backend, CacheDir: dir})
			if err != nil {
				if tc.plugin {
					t.Skipf("plugin backend unavailable: %v", err)
				}
				t.Fatal(err)
			}
			nat, err := a.Run(interp.Options{MaxSteps: 1 << 28})
			if err != nil {
				t.Fatal(err)
			}
			flat, err := c.Execute(interp.Options{MaxSteps: 1 << 28, Engine: interp.EngineFlat})
			if err != nil {
				t.Fatal(err)
			}
			if nat.Counts != flat.Counts || nat.Exit != flat.Exit || nat.Output != flat.Output {
				t.Fatalf("rebuilt artifact diverges from flat: %+v exit=%d vs %+v exit=%d",
					nat.Counts, nat.Exit, flat.Counts, flat.Exit)
			}
		})
	}
}

// encodeWire is the encoder in native's subprocess entry file, for the
// round trip below; the subprocess parity tests run the real one.
func encodeWire(vals [7]int64, out []byte, errFn, errMsg string) []byte {
	var b []byte
	for _, v := range append(vals[:], int64(len(errFn)), int64(len(errMsg)), int64(len(out))) {
		b = strconv.AppendInt(b, v, 10)
		b = append(b, ' ')
	}
	b[len(b)-1] = '\n'
	return append(append(append(b, errFn...), errMsg...), out...)
}

// FuzzDecodeWire holds the subprocess result decoder to two
// properties: arbitrary bytes give an error or a result, never a
// panic, and encoding a result then decoding it gives that result
// back. Crashers go in testdata/fuzz/FuzzDecodeWire.
func FuzzDecodeWire(f *testing.F) {
	f.Add(encodeWire([7]int64{3, 120, 40, 12, 5, 2, 0}, []byte("42\n\xff\x00"), "", ""), int64(-1), "main")
	f.Add(encodeWire([7]int64{0, 0, 0, 0, 0, 0, 1}, nil, "main", "step limit exceeded (infinite loop?)"), int64(math.MaxInt64), "")
	f.Add([]byte("1 2 3 4 5 6 7 0 0 3\nabc"), int64(0), "f")
	f.Add([]byte("0 0 0 0 0 0 0 -1 0 1\nx"), int64(7), "\xff")
	f.Add([]byte("0 0 0 0 0 0 0 0 0 99\n"), int64(math.MinInt64), "g")
	roundTrip := func(t *testing.T, vals [7]int64, out []byte, errFn, errMsg string) {
		v, o, fn, msg, err := native.DecodeWire(encodeWire(vals, out, errFn, errMsg))
		if err != nil || v != vals || !bytes.Equal(o, out) || fn != errFn || msg != errMsg {
			t.Fatalf("round trip of %v %q %q %q gave %v %q %q %q, %v", vals, out, errFn, errMsg, v, o, fn, msg, err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, v int64, s string) {
		if vals, out, errFn, errMsg, err := native.DecodeWire(data); err == nil {
			roundTrip(t, vals, out, errFn, errMsg)
		}
		roundTrip(t, [7]int64{v, -v, v >> 1, 0, 1, math.MinInt64, v & 1}, data, s, s+s)
	})
}
