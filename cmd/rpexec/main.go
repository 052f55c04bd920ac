// Command rpexec compiles a C source file and runs it in the
// instrumented interpreter, reporting the program's output, exit code,
// and dynamic operation counts — the measurement the paper's Figures
// 5–7 are built from.
//
// Usage:
//
//	rpexec [flags] file.c
//
// It accepts the same configuration flags as rpcc, plus -profile,
// which prints an execution profile: the hottest basic blocks by
// execution count and the per-tag dynamic memory traffic (-top bounds
// both lists). -sanitize runs the program under the analysis-soundness
// sanitizer: every memory access is diffed against the static MOD/REF
// and points-to sets, and any access outside them is reported with
// function/block/instruction provenance (exit status 1). Profiling and
// the sanitizer are switch-engine hooks: with either flag a flat-engine
// run executes on the switch engine, with identical counts and output,
// and the native engine rejects both. -certify
// re-proves every promotion certificate with the independent
// region-soundness verifier right after promotion; a refuted
// certificate fails the compile. -engine
// selects the execution engine: flat (the pre-lowered default),
// switch (the block-walking reference), or native (the program
// compiled to machine code via generated Go); all three produce
// identical counts, output, and error text, and all three stop a
// program at -maxsteps with the same error, so the choice only
// changes wall time. Native artifacts run in-process as a plugin
// where the platform supports it, else as a subprocess.
// -cpuprofile writes a Go pprof profile of the whole compile+run, for
// profiling the measurement loop itself. -trace prints the compile's
// per-pass table, as rpcc -trace does, above the counts line, and
// -trace-out writes the compile and execute spans as Chrome
// trace_event JSON.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"regpromo/internal/driver"
	"regpromo/internal/interp"
	"regpromo/internal/obs"
)

func main() {
	cf := driver.RegisterCompileFlags(flag.CommandLine)
	maxSteps := flag.Int64("maxsteps", 1<<33, "interpreter step limit")
	quiet := flag.Bool("q", false, "suppress program output, print only counts")
	profile := flag.Bool("profile", false, "collect and print a hot-spot profile")
	top := flag.Int("top", 10, "profile list length (with -profile)")
	engineName := flag.String("engine", "flat", "execution engine: flat, switch, or native")
	sanitize := flag.Bool("sanitize", false, "diff observed memory behaviour against the static analyses")
	cpuprofile := flag.String("cpuprofile", "", "write a Go CPU profile of the compile+run to this file")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rpexec [flags] file.c")
		flag.PrintDefaults()
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpexec:", err)
		os.Exit(1)
	}

	cfg, err := cf.Config()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpexec:", err)
		os.Exit(2)
	}

	engine, err := driver.ParseEngine(*engineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpexec:", err)
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rpexec:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "rpexec:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	var tr *obs.Tracer
	if cf.Trace || cf.TraceOut != "" {
		tr = obs.NewTracer()
	}
	c, err := driver.Compile(path, string(src), cfg, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpexec:", err)
		os.Exit(1)
	}
	esp := tr.Start("execute", "interp", 0).Label("engine", engine.String())
	res, err := c.Execute(interp.Options{MaxSteps: *maxSteps, Profile: *profile, Engine: engine, Sanitize: *sanitize})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpexec:", err)
		os.Exit(1)
	}
	esp.Arg("ops", res.Counts.Ops).Arg("loads", res.Counts.Loads).Arg("stores", res.Counts.Stores).End()
	if err := cf.WriteTrace(tr); err != nil {
		fmt.Fprintln(os.Stderr, "rpexec:", err)
		os.Exit(1)
	}
	if cf.Trace {
		fmt.Print(driver.PassTable(c, tr))
	}
	if !*quiet {
		fmt.Print(res.Output)
	}
	fmt.Printf("exit=%d ops=%d loads=%d stores=%d copies=%d calls=%d\n",
		res.Exit, res.Counts.Ops, res.Counts.Loads, res.Counts.Stores,
		res.Counts.Copies, res.Counts.Calls)
	if res.Profile != nil {
		fmt.Print(res.Profile.Format(*top))
	}
	if len(res.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "rpexec: sanitizer: %d violation(s):\n", len(res.Violations))
		for _, d := range res.Violations {
			fmt.Fprintln(os.Stderr, " ", d)
		}
		os.Exit(1)
	}
}
