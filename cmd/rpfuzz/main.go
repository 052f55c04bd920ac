// Command rpfuzz differentially fuzzes the compiler: it generates
// deterministic, UB-free random C programs (internal/testgen),
// compiles each under every pipeline configuration the evaluation
// compares — the no-opt reference, the baseline optimizer, promotion
// under MOD/REF and points-to analysis, and the §3.3/§3.4 variants —
// runs them in the instrumented interpreter, and flags any
// disagreement in printed output or exit code as a miscompilation.
// Failing seeds are shrunk with a delta-debugging reducer and
// archived as self-contained repro artifacts.
//
// Usage:
//
//	rpfuzz [flags]
//
//	-seeds N      number of consecutive seeds to test (default 100)
//	-start S      first seed (default 1)
//	-parallel M   concurrent seeds (default: one per CPU; never more
//	              than the CPUs, and each seed's own steps then run
//	              inline)
//	-short        trim the matrix to the reference plus the paper's
//	              three measured pipelines (CI smoke runs)
//	-engines E    engine matrix: "flat" runs the default engine only;
//	              "both" adds the switch reference engine; "all" adds
//	              the switch and native engines; a comma list (e.g.
//	              "flat,native") selects engines individually. Every
//	              non-flat engine executes each compilation and any
//	              disagreement with the flat engine — output, exit,
//	              error text, dynamic counts — is a divergence, so a
//	              native run is a translation-validation check of the
//	              codegen on every seed. Native artifacts always run as
//	              subprocesses: a fuzz run builds one artifact per
//	              (seed, config), and plugins can never be unloaded
//	-oracles O    comma list of optional oracles to run beside the
//	              cross-configuration diff and engine parity:
//	                sanitize     run every compilation on the switch
//	                             engine under the analysis-soundness
//	                             sanitizer (the flat run stays plain
//	                             and must agree with it); a memory
//	                             access outside the static MOD/REF or
//	                             points-to sets is a divergence
//	                certify      re-prove every promotion certificate
//	                             with the independent region-soundness
//	                             verifier on every compilation; a
//	                             refuted certificate is a divergence
//	                incremental  per seed, compile a one-unit-edited
//	                             variant cold into a fresh analysis
//	                             cache, recompile the full program warm
//	                             against it (and the reverse
//	                             direction), and fail unless the warm
//	                             IL is byte-identical to an uncached
//	                             compile; a stale replayed summary is a
//	                             divergence
//	              An unknown name exits 2 with a diagnostic.
//	-noreduce     archive failures without shrinking them first
//	-corpus DIR   failure artifact directory (default difftest/corpus)
//	-progress N   print a progress line every N completed seeds
//	              (default 100; 0 disables)
//	-v            log each divergent seed as it is found
//
// Long runs are not silent: a progress line (seeds done, divergences
// with one count per listed oracle, "executed N of M" — the
// configurations' compilations executed, of all configurations: those
// that compile to identical modules share one execution —, elapsed,
// seeds/sec) goes to stderr every -progress seeds, and a matching
// summary line always ends the run.
//
// Exit status is 0 when every seed agrees under every configuration,
// 1 when any divergence was found, 2 on usage or I/O errors. Each
// failure is written to <corpus>/seed<N>/ as prog.c (generator
// output), reduced.c (minimal reproducer), il-<config>.txt (final IL
// per configuration), and repro.txt (divergence summary plus a repro
// command carrying the run's -engines and -oracles). An incremental
// divergence adds base.c and mutated.c (the edit's two programs) and
// il-warm.txt and il-scratch.txt (the first diverging IL pair); it is
// archived unreduced, since the reducer replays only the
// cross-configuration diff.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"regpromo/internal/difftest"
	"regpromo/internal/driver"
	"regpromo/internal/interp"
	"regpromo/internal/native"
)

func main() {
	seeds := flag.Int64("seeds", 100, "number of consecutive seeds to test")
	start := flag.Int64("start", 1, "first seed")
	parallel := flag.Int("parallel", 0, "concurrent seeds (0 = one per CPU)")
	short := flag.Bool("short", false, "trim the configuration matrix for smoke runs")
	noreduce := flag.Bool("noreduce", false, "skip delta-debugging reduction of failures")
	corpus := flag.String("corpus", "difftest/corpus", "failure artifact directory")
	engines := flag.String("engines", "flat", `engine matrix: "flat", "both", "all", or a comma list (e.g. "flat,native")`)
	oracles := flag.String("oracles", "", `optional oracles: a comma list of "sanitize", "certify", "incremental"`)
	progressEvery := flag.Int64("progress", 100, "print a progress line every N completed seeds (0 = off)")
	verbose := flag.Bool("v", false, "log each divergence as it is found")
	flag.Parse()
	if *seeds <= 0 {
		fmt.Fprintln(os.Stderr, "rpfuzz: -seeds must be positive")
		os.Exit(2)
	}
	mode, err := difftest.ParseOracles(*oracles)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpfuzz:", err)
		os.Exit(2)
	}
	mode.Engines, err = driver.ParseEngines(*engines)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpfuzz:", err)
		os.Exit(2)
	}
	for _, e := range mode.Engines {
		if e == interp.EngineNative {
			// Every (seed, config) pair builds a distinct artifact, and
			// plugins can never be unloaded from the process.
			native.SetDefaultBackend(native.BackendSubprocess)
		}
	}

	// Progress accounting shared by the (possibly parallel) seed
	// workers. Progress runs on worker goroutines, so every counter is
	// atomic; the per-oracle map is filled here and only read there.
	began := time.Now()
	var done, diverged, executed, compiled atomic.Int64
	hits := map[string]*atomic.Int64{}
	for _, o := range mode.Oracles() {
		hits[o] = new(atomic.Int64)
	}
	status := func() string {
		var counts []string
		for _, o := range mode.Oracles() {
			counts = append(counts, fmt.Sprintf("%d %s", hits[o].Load(), o))
		}
		return statusLine(done.Load(), *seeds, diverged.Load(), counts, executed.Load(), compiled.Load(), time.Since(began))
	}
	opts := difftest.FuzzOptions{
		Start:     *start,
		Seeds:     *seeds,
		Parallel:  *parallel,
		Short:     *short,
		Mode:      mode,
		Reduce:    !*noreduce,
		CorpusDir: *corpus,
		Progress: func(r *difftest.Result) {
			n := done.Add(1)
			executed.Add(int64(r.Executed))
			compiled.Add(int64(len(r.Execs)))
			if r.Diverged() {
				diverged.Add(1)
				if *verbose {
					fmt.Fprintf(os.Stderr, "rpfuzz: seed %d diverges\n", r.Seed)
				}
			}
			for _, o := range r.Oracles() {
				hits[o].Add(1)
			}
			if *progressEvery > 0 && n%*progressEvery == 0 {
				fmt.Fprintf(os.Stderr, "rpfuzz: %s\n", status())
			}
		},
	}

	report, err := difftest.Fuzz(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpfuzz:", err)
		os.Exit(2)
	}
	fmt.Printf("rpfuzz: seeds [%d, %d) × %d configs: %s\n",
		*start, *start+*seeds, len(report.Matrix), status())
	if len(report.Failures) == 0 {
		return
	}
	for _, f := range report.Failures {
		fmt.Printf("\nseed %d (reduced to %d units) — artifacts in %s\n%s",
			f.Seed, f.Units, f.Dir, indent(f.Divergence))
	}
	os.Exit(1)
}

// statusLine renders the shared progress/summary form: seeds done,
// divergences with one count per listed oracle, how many of the
// seeds' configurations were executed (configurations that compiled
// to identical modules share one execution), elapsed wall time,
// seeds/sec.
func statusLine(done, total, diverged int64, oracleCounts []string, executed, configs int64, elapsed time.Duration) string {
	rate := 0.0
	if secs := elapsed.Seconds(); secs > 0 {
		rate = float64(done) / secs
	}
	perOracle := ""
	if len(oracleCounts) > 0 {
		perOracle = " (" + strings.Join(oracleCounts, ", ") + ")"
	}
	return fmt.Sprintf("%d/%d seeds, %d divergences%s, executed %d of %d, %.1fs elapsed, %.1f seeds/sec",
		done, total, diverged, perOracle, executed, configs, elapsed.Seconds(), rate)
}

// indent prefixes every line of s with two spaces.
func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimSuffix(s, "\n"), "\n", "\n  ") + "\n"
}
