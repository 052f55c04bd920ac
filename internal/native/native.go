// Package native builds and runs the machine-code backend: it takes
// the Go source the flat-program code generator renders
// (interp.Program.NativeSource), compiles it with the Go toolchain,
// and executes it either in-process as a plugin or out-of-process as
// a subprocess.
//
// The generated file declares RPRun and run but no main. A plugin
// build compiles it alone; a subprocess build adds entrySource, a
// constant main that calls run and writes the result in a small
// length-prefixed format (decodeWire). Every build links with
// -ldflags=-s -w: nothing reads an artifact's symbol table or DWARF.
//
// Build artifacts are content-addressed: the cache key hashes the
// toolchain version, the build recipe (the link flags and the entry
// file) and the generated source, so any change to the program, the
// configuration it was compiled under, a flag or the wire protocol
// lands in a different slot, and rebuilding an unchanged program is a
// cache hit that skips the toolchain entirely. Each artifact's sha256
// is recorded beside it; a hit re-hashes the artifact and rebuilds it
// when the digest is missing or does not match.
// The cache lives on disk (REGPROMO_NATIVE_CACHE, defaulting to the
// user cache directory) and is shared across processes; builds run in
// a private directory and commit with atomic renames, so concurrent
// builders of the same key cannot corrupt each other.
//
// Backend selection: plugin mode loads the artifact into the calling
// process (fastest per run — no process spawn), but Go plugins can
// never be unloaded, so a workload that builds many distinct programs
// (the fuzzer) must use subprocess mode or grow without bound; and
// plugin support is missing on some platforms and under some build
// modes (notably -race hosts). BackendAuto therefore probes plugin
// mode on first use and falls back to subprocess execution — for the
// whole process — when the probe fails.
package native

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"plugin"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"regpromo/internal/interp"
)

// Backend selects how a built artifact is executed.
type Backend int

const (
	// BackendAuto tries plugin mode and falls back to subprocess
	// execution — permanently, for the whole process — when plugin
	// build or load fails.
	BackendAuto Backend = iota
	// BackendPlugin loads the artifact into this process via
	// plugin.Open. Lowest per-run overhead; plugins can never be
	// unloaded, so unsuitable for many-program workloads.
	BackendPlugin
	// BackendSubprocess builds a standalone binary and execs it per
	// run. Slightly slower per run, works everywhere, and leaves no
	// residue in the calling process.
	BackendSubprocess
)

func (b Backend) String() string {
	switch b {
	case BackendPlugin:
		return "plugin"
	case BackendSubprocess:
		return "subprocess"
	}
	return "auto"
}

// defaultBackend is the process-wide backend used when
// Options.Backend is BackendAuto.
var defaultBackend atomic.Int32

// SetDefaultBackend fixes the process-wide backend used by
// BackendAuto builds. The fuzzer sets subprocess here: a fuzz run
// builds one artifact per (seed, config) and plugins can never be
// unloaded.
func SetDefaultBackend(b Backend) { defaultBackend.Store(int32(b)) }

// DefaultBackend returns the process-wide default backend.
func DefaultBackend() Backend { return Backend(defaultBackend.Load()) }

// pluginBroken latches the first plugin failure under BackendAuto so
// the probe is paid once per process, not once per build.
var pluginBroken atomic.Bool

// Options configure a build.
type Options struct {
	// Backend selects the execution mode; BackendAuto (the zero
	// value) defers to the process default, probing plugin support
	// when that too is auto.
	Backend Backend
	// CacheDir overrides the on-disk artifact cache location. Empty
	// means $REGPROMO_NATIVE_CACHE, else the user cache directory.
	CacheDir string
}

// Artifact is a built native program, ready to run.
type Artifact struct {
	backend Backend // resolved: plugin or subprocess
	binPath string
	runFn   func(int64) ([7]int64, []byte, string, string)
}

// Backend reports the execution mode the artifact resolved to.
func (a *Artifact) Backend() Backend { return a.backend }

// CacheDir resolves the artifact cache directory.
func CacheDir(override string) string {
	if override != "" {
		return override
	}
	if env := os.Getenv("REGPROMO_NATIVE_CACHE"); env != "" {
		return env
	}
	if base, err := os.UserCacheDir(); err == nil {
		return filepath.Join(base, "regpromo-native")
	}
	return filepath.Join(os.TempDir(), "regpromo-native")
}

// buildLocks serializes same-key builds within this process; cross-
// process races are handled by temp-file-plus-rename commits.
var buildLocks sync.Map // key string → *sync.Mutex

// pluginCache reuses opened plugins by cache key: a plugin can never
// be unloaded, so re-opening the same artifact should at least not
// re-probe the loader.
var pluginCache sync.Map // key string → *Artifact

// Build renders p's native source, compiles it (or reuses the
// content-addressed cached build), and returns a runnable artifact.
// The instrument flag is ignored, as Program.NativeSource's is: every
// build counts operations and honours the step budget. It is kept for
// the benchmark harness, which passes true.
func Build(p *interp.Program, instrument bool, opts Options) (*Artifact, error) {
	src := p.NativeSource(instrument)
	key := cacheKey(src)

	backend := opts.Backend
	if backend == BackendAuto {
		backend = DefaultBackend()
	}
	probing := false
	if backend == BackendAuto {
		if pluginBroken.Load() {
			backend = BackendSubprocess
		} else {
			backend, probing = BackendPlugin, true
		}
	}

	dir := CacheDir(opts.CacheDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("native cache: %w", err)
	}

	if backend == BackendPlugin {
		a, err := buildPlugin(dir, key, src)
		if err == nil {
			return a, nil
		}
		if !probing {
			return nil, err
		}
		// Auto probe failed: remember, and never try plugins again in
		// this process.
		pluginBroken.Store(true)
		backend = BackendSubprocess
	}
	return buildSubprocess(dir, key, src)
}

// buildPlugin builds (or reuses) the plugin artifact for key and
// loads its entry point.
func buildPlugin(dir, key, src string) (*Artifact, error) {
	if a, ok := pluginCache.Load(key); ok {
		return a.(*Artifact), nil
	}
	soPath := artifactPath(dir, key, true)
	if err := ensureBuilt(dir, key, src, soPath, true); err != nil {
		return nil, err
	}
	pl, err := plugin.Open(soPath)
	if err != nil {
		return nil, fmt.Errorf("native plugin load: %w", err)
	}
	sym, err := pl.Lookup("RPRun")
	if err != nil {
		return nil, fmt.Errorf("native plugin: %w", err)
	}
	runFn, ok := sym.(func(int64) ([7]int64, []byte, string, string))
	if !ok {
		return nil, fmt.Errorf("native plugin: RPRun has unexpected type %T", sym)
	}
	a := &Artifact{backend: BackendPlugin, binPath: soPath, runFn: runFn}
	pluginCache.Store(key, a)
	return a, nil
}

// buildSubprocess builds (or reuses) the standalone binary for key.
func buildSubprocess(dir, key, src string) (*Artifact, error) {
	binPath := artifactPath(dir, key, false)
	if err := ensureBuilt(dir, key, src, binPath, false); err != nil {
		return nil, err
	}
	return &Artifact{backend: BackendSubprocess, binPath: binPath}, nil
}

// ldflags drops the symbol table and DWARF from every artifact:
// nothing reads them, and they triple a plugin's size and lengthen
// every link.
const ldflags = "-ldflags=-s -w"

// entrySource is the subprocess main, added to a .bin build beside the
// generated file. argv[1] is MaxSteps. It writes one header line of
// ten space-separated decimal integers (the seven values run returns,
// then the byte lengths of errFn, errMsg and the program output)
// followed by those three byte strings back to back; decodeWire reads
// it. It imports os and strconv only.
const entrySource = `// Code generated by regpromo's native backend (internal/native). DO NOT EDIT.

package main

import (
	"os"
	"strconv"
)

func main() {
	var maxSteps int64
	if len(os.Args) > 1 {
		v, err := strconv.ParseInt(os.Args[1], 10, 64)
		if err != nil {
			os.Stderr.WriteString("rp-native: bad max-steps argument: " + err.Error() + "\n")
			os.Exit(3)
		}
		maxSteps = v
	}
	vals, out, errFn, errMsg := run(maxSteps)
	var b []byte
	for _, v := range append(vals[:], int64(len(errFn)), int64(len(errMsg)), int64(len(out))) {
		b = strconv.AppendInt(b, v, 10)
		b = append(b, ' ')
	}
	b[len(b)-1] = '\n'
	b = append(append(append(b, errFn...), errMsg...), out...)
	if _, err := os.Stdout.Write(b); err != nil {
		os.Exit(3)
	}
}
`

// recipe is everything besides the generated source that decides an
// artifact's bytes; cacheKey hashes it, so changing the toolchain, a
// flag or the entry file can never serve a stale artifact.
var recipe = runtime.Version() + "\x00" + ldflags + "\x00" + entrySource

// cacheKey names the artifacts built from src.
func cacheKey(src string) string {
	sum := sha256.Sum256([]byte(recipe + "\x00" + src))
	return hex.EncodeToString(sum[:16])
}

// artifactPath is where the plugin or binary for key lives in dir.
func artifactPath(dir, key string, pluginMode bool) string {
	if pluginMode {
		return filepath.Join(dir, "rp_"+key+".so")
	}
	return filepath.Join(dir, "rp_"+key+".bin")
}

// ensureBuilt makes outPath hold a verified artifact. A hit, whose
// content matches the digest recorded beside it, returns at once.
// Otherwise the source (plus entrySource for a binary) is compiled in
// a private directory, and the artifact and then its digest are
// committed with atomic renames, so concurrent builders (goroutines
// or processes) never expose a partial file.
func ensureBuilt(dir, key, src, outPath string, pluginMode bool) error {
	lockIface, _ := buildLocks.LoadOrStore(outPath, &sync.Mutex{})
	lock := lockIface.(*sync.Mutex)
	lock.Lock()
	defer lock.Unlock()

	if intact(outPath) {
		return nil
	}

	work, err := os.MkdirTemp(dir, "build-")
	if err != nil {
		return fmt.Errorf("native cache: %w", err)
	}
	defer os.RemoveAll(work)
	tmpOut := filepath.Join(work, "out")
	args := []string{"build", ldflags, "-o", tmpOut}
	files := [][2]string{{"rp_" + key + ".go", src}}
	if pluginMode {
		args = append(args, "-buildmode=plugin")
	} else {
		files = append(files, [2]string{"rp_main.go", entrySource})
	}
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(work, f[0]), []byte(f[1]), 0o644); err != nil {
			return fmt.Errorf("native cache: %w", err)
		}
		args = append(args, f[0])
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = work
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("native build (go %v): %v\n%s", args, err, out)
	}
	sum, err := fileDigest(tmpOut)
	if err != nil {
		return fmt.Errorf("native cache: %w", err)
	}
	tmpSum := filepath.Join(work, "sha256")
	if err := os.WriteFile(tmpSum, []byte(sum), 0o644); err != nil {
		return fmt.Errorf("native cache: %w", err)
	}
	if err := os.Rename(tmpOut, outPath); err != nil {
		return fmt.Errorf("native cache: %w", err)
	}
	if err := os.Rename(tmpSum, outPath+".sha256"); err != nil {
		return fmt.Errorf("native cache: %w", err)
	}
	return nil
}

// intact reports whether path holds an artifact whose sha256 matches
// the digest recorded beside it when it was built.
func intact(path string) bool {
	want, err := os.ReadFile(path + ".sha256")
	if err != nil {
		return false
	}
	got, err := fileDigest(path)
	return err == nil && got == string(want)
}

// fileDigest returns the hex sha256 of the file at path.
func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// decodeWire parses a subprocess result in entrySource's format: a
// header line of ten space-separated decimal integers (the seven
// values, then the byte lengths of errFn, errMsg and the output)
// followed by exactly those bytes.
func decodeWire(b []byte) (vals [7]int64, out []byte, errFn, errMsg string, err error) {
	head, body, ok := bytes.Cut(b, []byte{'\n'})
	if !ok {
		return vals, nil, "", "", errors.New("no header line")
	}
	fields := bytes.Split(head, []byte{' '})
	if len(fields) != len(vals)+3 {
		return vals, nil, "", "", fmt.Errorf("header has %d fields, want %d", len(fields), len(vals)+3)
	}
	var n [3]int
	for i, f := range fields {
		v, err := strconv.ParseInt(string(f), 10, 64)
		switch {
		case err != nil:
			return vals, nil, "", "", fmt.Errorf("header field %d: %w", i, err)
		case i < len(vals):
			vals[i] = v
		case v < 0 || v > int64(len(body)):
			return vals, nil, "", "", fmt.Errorf("header length %d outside the %d-byte body", v, len(body))
		default:
			n[i-len(vals)] = int(v)
		}
	}
	if n[0]+n[1]+n[2] != len(body) {
		return vals, nil, "", "", fmt.Errorf("body is %d bytes, header says %d", len(body), n[0]+n[1]+n[2])
	}
	return vals, body[n[0]+n[1]:], string(body[:n[0]]), string(body[n[0] : n[0]+n[1]]), nil
}

// Run executes the artifact under the interpreter option contract:
// identical output, exit status, error text, dynamic counts and
// step-limit behaviour. Profiling and sanitizing are interpreter-only
// features and are rejected.
func (a *Artifact) Run(opts interp.Options) (*interp.Result, error) {
	switch {
	case opts.Profile:
		return nil, fmt.Errorf("native engine: profiling is not supported (use the flat or switch engine)")
	case opts.Sanitize:
		return nil, fmt.Errorf("native engine: the sanitizer is not supported (use the flat or switch engine)")
	}
	var vals [7]int64
	var out []byte
	var errFn, errMsg string
	if a.backend == BackendPlugin {
		vals, out, errFn, errMsg = a.runFn(opts.MaxSteps)
	} else {
		cmd := exec.Command(a.binPath, strconv.FormatInt(opts.MaxSteps, 10))
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("native artifact %s: %v\n%s", filepath.Base(a.binPath), err, stderr.String())
		}
		var err error
		if vals, out, errFn, errMsg, err = decodeWire(stdout.Bytes()); err != nil {
			return nil, fmt.Errorf("native artifact %s: bad result: %w", filepath.Base(a.binPath), err)
		}
	}
	if vals[6] != 0 {
		return nil, &interp.Error{Func: errFn, Msg: errMsg}
	}
	return &interp.Result{
		Counts: interp.Counts{Ops: vals[1], Loads: vals[2], Stores: vals[3], Copies: vals[4], Calls: vals[5]},
		Exit:   vals[0],
		Output: string(out),
	}, nil
}
