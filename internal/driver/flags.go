package driver

import (
	"flag"
	"fmt"
	"os"
	"time"

	"regpromo/internal/obs"
)

// CompileFlags is the command-line configuration rpcc and rpexec
// share, registered once by RegisterCompileFlags.
type CompileFlags struct {
	// Trace asks for the per-pass table (-trace); TraceOut names the
	// file the span tree is written to as Chrome trace_event JSON
	// (-trace-out).
	Trace    bool
	TraceOut string

	analysis string
	cfg      Config
}

// RegisterCompileFlags registers -analysis -promote -pointerpromo
// -noopt -noalloc -k -throttle -dse -certify -trace -trace-out on fs.
// Read the configuration with Config once fs has parsed.
func RegisterCompileFlags(fs *flag.FlagSet) *CompileFlags {
	f := &CompileFlags{}
	fs.StringVar(&f.analysis, "analysis", "modref", "interprocedural analysis: modref or pointer")
	fs.BoolVar(&f.cfg.Promote, "promote", false, "enable scalar register promotion")
	fs.BoolVar(&f.cfg.PointerPromote, "pointerpromo", false, "enable pointer-based promotion (§3.3); implies -promote")
	fs.BoolVar(&f.cfg.DisableOpt, "noopt", false, "disable classical optimizations")
	fs.BoolVar(&f.cfg.NoAlloc, "noalloc", false, "skip register allocation")
	fs.IntVar(&f.cfg.K, "k", 0, "physical register count (0 = default 32)")
	fs.IntVar(&f.cfg.Throttle, "throttle", 0, "promotion pressure limit (0 = unthrottled, §3.4 bin-packing)")
	fs.BoolVar(&f.cfg.DSE, "dse", false, "enable tag-based dead-store elimination (§3.4 extension)")
	fs.BoolVar(&f.cfg.Certify, "certify", false, "re-prove promotion certificates with the region-soundness verifier")
	fs.BoolVar(&f.Trace, "trace", false, "print the per-pass trace table")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write the span tree as Chrome trace_event JSON to this file")
	return f
}

// Config returns the configuration the parsed flags describe, or an
// error naming an unknown -analysis value.
func (f *CompileFlags) Config() (Config, error) {
	cfg := f.cfg
	cfg.Promote = cfg.Promote || cfg.PointerPromote
	switch f.analysis {
	case "modref":
		cfg.Analysis = ModRef
	case "pointer":
		cfg.Analysis = PointsTo
	default:
		return Config{}, fmt.Errorf("unknown analysis %q (want modref or pointer)", f.analysis)
	}
	return cfg, nil
}

// PassTable formats a traced compile's pass records as the -trace
// table, totalled by the wall time of the compile's root span.
func PassTable(c *Compilation, tr *obs.Tracer) string {
	var wall time.Duration
	for _, sp := range tr.Spans() {
		if sp.Name == "compile" && sp.Cat == "compile" {
			wall = time.Duration(sp.DurNS)
			break
		}
	}
	return obs.FormatTable(c.Passes, wall)
}

// WriteTrace writes tr's span tree to the -trace-out file, if one was
// named.
func (f *CompileFlags) WriteTrace(tr *obs.Tracer) error {
	if f.TraceOut == "" {
		return nil
	}
	out, err := os.Create(f.TraceOut)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
