package cfg_test

import (
	"testing"

	"regpromo/internal/cfg"
	"regpromo/internal/driver"
	"regpromo/internal/ir"
)

// BenchmarkCFGFacts times cfg.Normalize over every function of the
// suite and of testgen seeds 1-40, as the front end lowers them. The
// front end already gives loops their pads and exit blocks, so each
// call computes one dominator tree and one loop forest and changes
// nothing, which is what every pass that normalizes pays.
func BenchmarkCFGFacts(b *testing.B) {
	names, srcs := oraclePrograms()
	var funcs []*ir.Func
	for i, name := range names {
		fe, err := driver.ParseSource(name+".c", srcs[i])
		if err != nil {
			b.Fatal(err)
		}
		c, err := fe.Compile(oracleConfigs[0].Config, nil)
		if err != nil {
			b.Fatal(err)
		}
		funcs = append(funcs, c.Module.FuncsInOrder()...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, fn := range funcs {
			cfg.Normalize(fn)
		}
	}
}
