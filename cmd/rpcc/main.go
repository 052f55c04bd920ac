// Command rpcc compiles a C source file through the register-promotion
// pipeline and prints the resulting IL, per-pass telemetry, or both.
//
// Usage:
//
//	rpcc [flags] file.c
//
//	-analysis modref|pointer   interprocedural analysis (default modref)
//	-promote                   enable scalar register promotion
//	-pointerpromo              also enable §3.3 pointer-based promotion
//	-noopt                     disable the classical optimization passes
//	-noalloc                   skip register allocation
//	-k N                       physical register count (default 32)
//	-dump                      print the final IL
//	-stats                     print only the statistics footer, no IL
//	-trace                     print the per-pass trace table: each
//	                           pass's time (a per-function pass's time
//	                           is summed over functions and workers)
//	                           and static IR deltas, then the
//	                           compile's wall time as the total
//	-dump-ir pass|all          print the IL after the named pass (or
//	                           after every pass); a name the
//	                           configuration does not run is rejected
//	                           before compiling. Runs each
//	                           per-function pass over all functions
//	                           before the next, as -check pass does
//	-json                      emit the whole compilation record — pass
//	                           records, promotion and allocation
//	                           statistics — as one JSON object
//	-trace-out FILE            write the compile's hierarchical span
//	                           tree (compile → passes → per-function
//	                           middle-end work items on their workers →
//	                           analysis fixpoints) as Chrome
//	                           trace_event JSON; open the file in
//	                           about:tracing or ui.perfetto.dev
//	-check SPEC                run the internal/check lint passes:
//	                           "module" runs the full registry once
//	                           after the pipeline, "pass" after the
//	                           front end and after every pass
//	                           (pinpoints the first pass that breaks
//	                           an invariant), and a comma list of pass
//	                           names (e.g. "uninit,tags" or
//	                           "certify,pressure") runs exactly those
//	                           at the module boundary
//	-certify                   re-prove every promotion certificate
//	                           with the independent region-soundness
//	                           verifier right after promotion
//
// The promotion and allocation summaries always follow the IL as
// ";"-prefixed comment lines, so downstream IL consumers can skip them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"regpromo/internal/driver"
	"regpromo/internal/ir"
	"regpromo/internal/obs"
	"regpromo/internal/opt/promote"
	"regpromo/internal/regalloc"
)

func main() {
	cf := driver.RegisterCompileFlags(flag.CommandLine)
	dump := flag.Bool("dump", false, "print the final IL")
	dot := flag.String("dot", "", "emit the named function's CFG as Graphviz dot")
	stats := flag.Bool("stats", false, "print only the statistics footer, no IL")
	dumpIR := flag.String("dump-ir", "", "print the IL after the named pass (\"all\" = every pass)")
	jsonOut := flag.Bool("json", false, "emit the compilation record as JSON")
	checkFlag := flag.String("check", "off", `IL checker: "off", "module", "pass", or a comma list of lint-pass names`)
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rpcc [flags] file.c")
		flag.PrintDefaults()
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpcc:", err)
		os.Exit(1)
	}

	cfg, err := cf.Config()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpcc:", err)
		os.Exit(2)
	}
	level, checkPasses, err := driver.ParseCheck(*checkFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpcc:", err)
		os.Exit(2)
	}
	cfg.Check = level
	cfg.CheckPasses = checkPasses

	// Trace the compile whenever any telemetry output was asked for.
	var tr *obs.Tracer
	if cf.Trace || cf.TraceOut != "" || *dumpIR != "" || *jsonOut {
		tr = obs.NewTracer()
		tr.DumpPass = *dumpIR
	}
	c, err := driver.Compile(path, string(src), cfg, tr)
	if err != nil {
		var ce *driver.CheckError
		if errors.As(err, &ce) {
			fmt.Fprintf(os.Stderr, "rpcc: %d check failure(s) after %s:\n", len(ce.Diags), ce.Pass)
			for _, d := range ce.Diags {
				fmt.Fprintln(os.Stderr, " ", d)
			}
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "rpcc:", err)
		os.Exit(1)
	}

	if err := cf.WriteTrace(tr); err != nil {
		fmt.Fprintln(os.Stderr, "rpcc:", err)
		os.Exit(1)
	}
	if *jsonOut {
		if err := writeJSON(path, cfg, c); err != nil {
			fmt.Fprintln(os.Stderr, "rpcc:", err)
			os.Exit(1)
		}
		return
	}
	if *dot != "" {
		fn, ok := c.Module.Funcs[*dot]
		if !ok {
			fmt.Fprintf(os.Stderr, "rpcc: no function %q\n", *dot)
			os.Exit(1)
		}
		printDot(fn, c.Module)
		return
	}
	if cf.Trace {
		fmt.Print(driver.PassTable(c, tr))
	}
	for _, e := range c.Passes {
		if e.IRDump != "" {
			fmt.Printf(";; IL after pass %d (%s)\n%s\n", e.Index, e.Name, e.IRDump)
		}
	}
	if *dump || (!*stats && !cf.Trace && *dumpIR == "") {
		fmt.Print(ir.FormatModule(c.Module))
	}
	printFooter(c)
}

// printFooter summarizes the promotion and allocation statistics that
// the compilation recorded, as IL comment lines.
func printFooter(c *driver.Compilation) {
	fmt.Printf("; promotions: scalar=%d pointer=%d refs-rewritten=%d lifted-loads=%d lifted-stores=%d\n",
		c.Promote.ScalarPromotions, c.Promote.PointerPromotions,
		c.Promote.RefsRewritten, c.Promote.LoadsInserted, c.Promote.StoresInserted)
	fmt.Printf("; allocation: spilled=%d spill-loads=%d spill-stores=%d coalesced=%d rounds=%d max-live=%d\n",
		c.Alloc.Spilled, c.Alloc.SpillLoads, c.Alloc.SpillStores,
		c.Alloc.Coalesced, c.Alloc.Rounds, c.Alloc.MaxLive)
}

// record is the -json output shape: one compilation, fully described.
type record struct {
	File     string           `json:"file"`
	Analysis string           `json:"analysis"`
	Promote  bool             `json:"promote"`
	Passes   []*obs.PassEvent `json:"passes"`
	Stats    struct {
		Promote promote.Stats  `json:"promote"`
		Alloc   regalloc.Stats `json:"alloc"`
	} `json:"stats"`
}

func writeJSON(path string, cfg driver.Config, c *driver.Compilation) error {
	rec := record{
		File:     path,
		Analysis: cfg.Analysis.String(),
		Promote:  cfg.Promote,
		Passes:   c.Passes,
	}
	rec.Stats.Promote = c.Promote
	rec.Stats.Alloc = c.Alloc
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rec)
}

// printDot writes a Graphviz digraph of fn's CFG with instruction
// listings in the node labels.
func printDot(fn *ir.Func, m *ir.Module) {
	fmt.Printf("digraph %q {\n", fn.Name)
	fmt.Println("\tnode [shape=box, fontname=\"monospace\"];")
	for _, b := range fn.Blocks {
		var label strings.Builder
		fmt.Fprintf(&label, "%s\\l", b.Label)
		for i := range b.Instrs {
			text := ir.FormatInstr(&b.Instrs[i], &m.Tags, b)
			text = strings.ReplaceAll(text, "\"", "'")
			fmt.Fprintf(&label, "  %s\\l", text)
		}
		fmt.Printf("\t%q [label=\"%s\"];\n", b.Label, label.String())
		for _, s := range b.Succs {
			fmt.Printf("\t%q -> %q;\n", b.Label, s.Label)
		}
	}
	fmt.Println("}")
}
