// Command rpbench regenerates the paper's evaluation tables over the
// packaged benchmark suite.
//
// Usage:
//
//	rpbench -list            print the Figure 4 program table
//	rpbench                  print Figures 5, 6, and 7, plus Figure 8
//	                         (this reproduction's weighted-cycles
//	                         extension)
//	rpbench -figure 6        print one figure (5=ops, 6=stores,
//	                         7=loads, 8=weighted cycles)
//	rpbench -parallel N      measure up to N programs concurrently
//	                         (0 = one per CPU; never more than the
//	                         CPUs, and each program's compiles then
//	                         run inline); results are assembled
//	                         in suite order, so the tables are
//	                         identical to a serial run's
//	rpbench -pointerpromo    rerun the matrix with §3.3 pointer-based
//	                         promotion enabled and report the delta it
//	                         adds over scalar promotion (§3.3 study)
//	rpbench -programs a,b,c  restrict to named programs
//	-k N                     physical register count (default 32)
//	-certify                 re-prove every promotion certificate
//	                         during each measurement compile
//	-markdown                emit Markdown tables (for EXPERIMENTS.md)
//	rpbench -json            run the same matrix and write the
//	                         machine-readable report — every program's
//	                         four configuration cells (dynamic counts,
//	                         promotions, spills, static register
//	                         pressure) and the figure rows — to a
//	                         versioned BENCH_<timestamp>.json file.
//	                         Apart from its timestamp the report is
//	                         deterministic: two runs of the same code,
//	                         serial or parallel, write the same bytes
//	-out path                destination for -json ("-" = stdout)
//	rpbench -compare A[,B]   diff two benchmark reports and print the
//	                         regression/improvement table: with one
//	                         path, A is compared against the newest
//	                         other BENCH_*.json baseline; with two,
//	                         B is compared against A. Exits 1 when a
//	                         quantity (dynamic ops, loads, stores,
//	                         promotions, spills, pressure, scale SCC
//	                         counts) regressed past -threshold. Both
//	                         reports must be at the current schema
//	-threshold P             gating percentage for -compare
//	                         (default 1.0)
//	rpbench -tier scale      run the incremental-analysis scale tier:
//	                         generate a ~1000-function module, compile
//	                         it cold with a fresh analysis cache, then
//	                         recompile a one-function-edited variant
//	                         warm against the same cache, and report
//	                         solved vs cached SCC counts and whether the
//	                         warm IL is byte-identical to an uncached
//	                         compile. With -json the scale cell is
//	                         written as a report (gated by -compare
//	                         like any other report).
//	-scale-funcs N           scale-tier module size in helper functions
//	                         (default 1000; CI smoke uses less)
//	-scale-seed S            scale-tier generation seed (default 1)
//	-scale-edit I            helper index edited for the warm recompile
//	                         (default: the middle helper)
//	-scale-exec              also execute the compiled modules and check
//	                         warm and uncached runs agree
//
// Wall-clock time is perfbench's to measure (perfbench/README.md),
// repeated and with its spread; native-over-flat throughput is its
// native workload.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"regpromo/internal/bench"
	"regpromo/internal/par"
)

func main() {
	list := flag.Bool("list", false, "print the Figure 4 program table")
	figure := flag.Int("figure", 0, "print only one figure: 5, 6, or 7")
	pointer := flag.Bool("pointerpromo", false, "measure §3.3 pointer-based promotion against scalar promotion")
	programs := flag.String("programs", "", "comma-separated program subset")
	k := flag.Int("k", 0, "physical register count (0 = default)")
	certify := flag.Bool("certify", false, "re-prove promotion certificates during every measurement compile")
	markdown := flag.Bool("markdown", false, "emit Markdown tables")
	jsonOut := flag.Bool("json", false, "write the benchmark report as BENCH_<timestamp>.json")
	out := flag.String("out", "", "output path for -json (default BENCH_<timestamp>.json, \"-\" = stdout)")
	parallel := flag.Int("parallel", 1, "programs measured concurrently (0 = one per CPU, 1 = serial)")
	compare := flag.String("compare", "", "diff reports: old.json,new.json (or one path vs the previous baseline)")
	threshold := flag.Float64("threshold", 1.0, "regression gate percentage for -compare")
	tier := flag.String("tier", "", "extra bench tier: \"scale\" (incremental-analysis scale run)")
	scaleFuncs := flag.Int("scale-funcs", 1000, "scale tier: helper-function count")
	scaleSeed := flag.Int64("scale-seed", 1, "scale tier: generation seed")
	scaleEdit := flag.Int("scale-edit", -1, "scale tier: edited helper index (-1 = middle)")
	scaleExec := flag.Bool("scale-exec", false, "scale tier: execute the compiled modules too")
	flag.Parse()

	if *compare != "" {
		runCompare(*compare, *threshold)
		return
	}

	if *tier != "" {
		if *tier != "scale" {
			fmt.Fprintf(os.Stderr, "rpbench: unknown tier %q (only \"scale\")\n", *tier)
			os.Exit(2)
		}
		err := runScaleTier(bench.ScaleOptions{
			Seed:    *scaleSeed,
			Funcs:   *scaleFuncs,
			Edit:    *scaleEdit,
			Execute: *scaleExec,
		}, *jsonOut, *out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rpbench:", err)
			os.Exit(1)
		}
		return
	}
	if *list {
		fmt.Print(bench.FormatFigure4())
		return
	}

	opts := bench.Options{K: *k, Certify: *certify, Parallel: *parallel}
	if *parallel == 0 {
		opts.Parallel = par.DefaultWorkers()
	}
	if *programs != "" {
		opts.Programs = strings.Split(*programs, ",")
	}

	if *jsonOut {
		opts.PointerPromotion = *pointer
		if err := runJSON(opts, *out); err != nil {
			fmt.Fprintln(os.Stderr, "rpbench:", err)
			os.Exit(1)
		}
		return
	}

	if *pointer {
		if err := runPointerStudy(opts, *markdown); err != nil {
			fmt.Fprintln(os.Stderr, "rpbench:", err)
			os.Exit(1)
		}
		return
	}

	fr, err := bench.RunFigures(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpbench:", err)
		os.Exit(1)
	}
	// Figures 5, 6, and 7 are the paper's; Figure 8 is this
	// reproduction's weighted-cycles extension (§5's latency remark,
	// quantified).
	metrics := map[int]bench.Metric{5: bench.TotalOps, 6: bench.Stores, 7: bench.Loads, 8: bench.WeightedCycles}
	if *figure != 0 {
		m, ok := metrics[*figure]
		if !ok {
			fmt.Fprintln(os.Stderr, "rpbench: -figure must be 5, 6, 7, or 8 (weighted cycles)")
			os.Exit(2)
		}
		printTable(*markdown, *figure, m, fr.Rows[m])
		return
	}
	for _, f := range []int{5, 6, 7, 8} {
		m := metrics[f]
		printTable(*markdown, f, m, fr.Rows[m])
		fmt.Println()
	}
}

// runJSON runs the measurement matrix and writes the versioned
// report. Timestamped filenames sort chronologically, so the newest
// file is the baseline bench.BaselineBefore picks up.
func runJSON(opts bench.Options, out string) error {
	r, err := bench.CollectReport(opts)
	if err != nil {
		return err
	}
	path, err := writeReport(r, out)
	if err != nil {
		return err
	}
	if path != "" {
		fmt.Printf("wrote %s (%d programs, Figures 5, 6, and 7 plus the Figure 8 extension, schema %s)\n",
			path, len(r.Programs), r.Schema)
	}
	return nil
}

// writeReport stamps and writes a report to out ("-" = stdout, "" =
// a fresh BENCH_<timestamp>.json). It returns the path written, or ""
// for stdout.
func writeReport(r *bench.Report, out string) (string, error) {
	now := time.Now().UTC()
	r.Timestamp = now.Format(time.RFC3339)
	if out == "-" {
		return "", r.WriteJSON(os.Stdout)
	}
	var f *os.File
	var err error
	if out != "" {
		f, err = os.Create(out)
		if err != nil {
			return "", err
		}
	} else {
		// Default name: BENCH_<timestamp>.json, uniquified with an _N
		// suffix when two runs land in the same second — O_EXCL makes
		// the existence check and the create one atomic step, so
		// concurrent runs cannot silently overwrite each other. The _N
		// suffix sorts after the bare name, keeping BaselineBefore's
		// newest-by-name ordering correct.
		base := "BENCH_" + now.Format("20060102T150405")
		for n := 0; ; n++ {
			out = base + ".json"
			if n > 0 {
				out = fmt.Sprintf("%s_%d.json", base, n)
			}
			f, err = os.OpenFile(out, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
			if err == nil {
				break
			}
			if !os.IsExist(err) {
				return "", err
			}
		}
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return out, nil
}

// runScaleTier implements -tier scale: run the incremental-analysis
// scale tier and either print the human summary or write the scale
// cell as a report.
func runScaleTier(o bench.ScaleOptions, jsonOut bool, out string) error {
	sr, err := bench.RunScale(o)
	if err != nil {
		return err
	}
	if !sr.Identical {
		// The warm compile diverged from the uncached reference: the
		// numbers below are meaningless and the cache is unsound.
		return fmt.Errorf("scale tier: warm IL is NOT identical to the uncached compile (edit %s)", sr.EditedFunc)
	}
	if jsonOut {
		r := &bench.Report{Schema: bench.SchemaVersion, MemLatency: bench.MemLatency, Scale: sr}
		path, err := writeReport(r, out)
		if err != nil {
			return err
		}
		if path != "" {
			fmt.Printf("wrote %s (scale tier: %d functions, schema %s)\n", path, sr.Functions, r.Schema)
		}
		return nil
	}
	fmt.Printf("scale tier: %d functions, %d lines, %d callgraph SCCs (seed %d, edit %s)\n",
		sr.Functions, sr.Lines, sr.SCCs, sr.Seed, sr.EditedFunc)
	fmt.Printf("  cold: sccs solved %5d  cached %5d\n", sr.Cold.SCCsSolved, sr.Cold.SCCsCached)
	fmt.Printf("  warm: sccs solved %5d  cached %5d\n", sr.Warm.SCCsSolved, sr.Warm.SCCsCached)
	fmt.Printf("  warm IL identical to uncached compile: %v\n", sr.Identical)
	return nil
}

// runCompare implements -compare: diff two reports and gate on the
// deterministic metrics. "old.json,new.json" names both sides; a
// single path is compared against the newest other BENCH_*.json in
// the current directory.
func runCompare(arg string, threshold float64) {
	var oldPath, newPath string
	var oldR, newR *bench.Report
	var err error
	if i := strings.IndexByte(arg, ','); i >= 0 {
		oldPath, newPath = arg[:i], arg[i+1:]
		if oldR, err = bench.LoadReport(oldPath); err != nil {
			fmt.Fprintln(os.Stderr, "rpbench:", err)
			os.Exit(2)
		}
	} else {
		newPath = arg
		oldR, oldPath, err = bench.BaselineBefore(".", newPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rpbench: no baseline to compare against:", err)
			os.Exit(2)
		}
	}
	if newR, err = bench.LoadReport(newPath); err != nil {
		fmt.Fprintln(os.Stderr, "rpbench:", err)
		os.Exit(2)
	}
	cr := bench.Compare(oldR, newR, threshold)
	cr.OldPath, cr.NewPath = oldPath, newPath
	fmt.Printf("comparing %s -> %s\n", oldPath, newPath)
	fmt.Print(cr.Format())
	if !cr.OK() {
		os.Exit(1)
	}
}

func printTable(markdown bool, figure int, m bench.Metric, rows []bench.Row) {
	if !markdown {
		fmt.Printf("Figure %d: ", figure)
		fmt.Print(bench.FormatTable(m, rows))
		return
	}
	fmt.Printf("### Figure %d: %s\n\n", figure, m)
	fmt.Println("| Program | analysis | without | with | difference | % removed |")
	fmt.Println("|---|---|---:|---:|---:|---:|")
	for _, r := range rows {
		fmt.Printf("| %s | %s | %d | %d | %d | %.2f |\n",
			r.Program, r.Analysis, r.Without, r.With, r.Difference(), r.PercentRemoved())
	}
}

// runPointerStudy reproduces the §3.3 comparison: how much more the
// pointer-based promoter removes beyond scalar promotion.
func runPointerStudy(opts bench.Options, markdown bool) error {
	scalar, err := bench.RunFigures(opts)
	if err != nil {
		return err
	}
	withPtr := opts
	withPtr.PointerPromotion = true
	ptr, err := bench.RunFigures(withPtr)
	if err != nil {
		return err
	}
	if markdown {
		fmt.Println("### §3.3 study: pointer-based promotion over scalar promotion (points-to analysis)")
		fmt.Println()
		fmt.Println("| Program | metric | scalar promo | +pointer promo | extra removed |")
		fmt.Println("|---|---|---:|---:|---:|")
	} else {
		fmt.Println("§3.3 study: pointer-based promotion over scalar promotion (points-to analysis)")
		fmt.Printf("%-11s %-8s %14s %14s %14s\n", "Program", "metric", "scalar", "+pointer", "extra removed")
	}
	for _, metric := range []bench.Metric{bench.TotalOps, bench.Stores, bench.Loads} {
		ms := indexRows(scalar.Rows[metric])
		mp := indexRows(ptr.Rows[metric])
		for _, r := range scalar.Rows[metric] {
			if r.Analysis != "pointer" {
				continue
			}
			key := r.Program
			s := ms[key]
			p := mp[key]
			extra := s.With - p.With
			if markdown {
				fmt.Printf("| %s | %s | %d | %d | %d |\n", key, metric, s.With, p.With, extra)
			} else {
				fmt.Printf("%-11s %-8s %14d %14d %14d\n", key, metric, s.With, p.With, extra)
			}
		}
	}
	return nil
}

func indexRows(rows []bench.Row) map[string]bench.Row {
	out := map[string]bench.Row{}
	for _, r := range rows {
		if r.Analysis == "pointer" {
			out[r.Program] = r
		}
	}
	return out
}
