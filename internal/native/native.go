// Package native builds and runs the machine-code backend: it takes
// the Go source the flat-program code generator renders
// (interp.Program.NativeSource), compiles it with the Go toolchain,
// and executes it either in-process as a plugin or out-of-process as
// a subprocess speaking a small JSON protocol.
//
// Build artifacts are content-addressed: the cache key is the hash of
// the generated source plus the toolchain version, so any change to
// the program or the configuration it was compiled under lands in a
// different slot, and rebuilding an unchanged program is a cache hit
// that skips the toolchain entirely.
// The cache lives on disk (REGPROMO_NATIVE_CACHE, defaulting to the
// user cache directory) and is shared across processes; builds write
// to unique temp files and commit with an atomic rename, so
// concurrent builders of the same key cannot corrupt each other.
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
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
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
	sum := sha256.Sum256([]byte(runtime.Version() + "\x00" + src))
	key := hex.EncodeToString(sum[:16])

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
	soPath := filepath.Join(dir, "rp_"+key+".so")
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
	binPath := filepath.Join(dir, "rp_"+key+".bin")
	if err := ensureBuilt(dir, key, src, binPath, false); err != nil {
		return nil, err
	}
	return &Artifact{backend: BackendSubprocess, binPath: binPath}, nil
}

// ensureBuilt makes outPath exist: a disk-cache hit returns
// immediately, otherwise the source is written and compiled, all
// committed with atomic renames so concurrent builders (goroutines
// or processes) converge on the same files.
func ensureBuilt(dir, key, src, outPath string, pluginMode bool) error {
	lockIface, _ := buildLocks.LoadOrStore(key+filepath.Ext(outPath), &sync.Mutex{})
	lock := lockIface.(*sync.Mutex)
	lock.Lock()
	defer lock.Unlock()

	if _, err := os.Stat(outPath); err == nil {
		return nil
	}

	goPath := filepath.Join(dir, "rp_"+key+".go")
	if _, err := os.Stat(goPath); err != nil {
		tmp := fmt.Sprintf("%s.tmp%d", goPath, os.Getpid())
		if err := os.WriteFile(tmp, []byte(src), 0o644); err != nil {
			return fmt.Errorf("native cache: %w", err)
		}
		if err := os.Rename(tmp, goPath); err != nil {
			os.Remove(tmp)
			return fmt.Errorf("native cache: %w", err)
		}
	}

	tmpOut := fmt.Sprintf("%s.tmp%d", outPath, os.Getpid())
	args := []string{"build"}
	if pluginMode {
		args = append(args, "-buildmode=plugin")
	}
	args = append(args, "-o", tmpOut, goPath)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		os.Remove(tmpOut)
		return fmt.Errorf("native build (go %v): %v\n%s", args[:len(args)-2], err, out)
	}
	if err := os.Rename(tmpOut, outPath); err != nil {
		os.Remove(tmpOut)
		return fmt.Errorf("native cache: %w", err)
	}
	return nil
}

// wire is the subprocess result protocol: one JSON object on stdout.
// Output travels base64-encoded — programs may print arbitrary bytes
// and JSON strings only carry valid UTF-8.
type wire struct {
	Vals   [7]int64 `json:"vals"`
	Out    string   `json:"out"`
	ErrFn  string   `json:"err_fn,omitempty"`
	ErrMsg string   `json:"err_msg,omitempty"`
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
		var w wire
		if err := json.Unmarshal(stdout.Bytes(), &w); err != nil {
			return nil, fmt.Errorf("native artifact %s: bad result: %w", filepath.Base(a.binPath), err)
		}
		decoded, err := base64.StdEncoding.DecodeString(w.Out)
		if err != nil {
			return nil, fmt.Errorf("native artifact %s: bad output encoding: %w", filepath.Base(a.binPath), err)
		}
		vals, out, errFn, errMsg = w.Vals, decoded, w.ErrFn, w.ErrMsg
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
