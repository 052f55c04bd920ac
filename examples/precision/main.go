// Precision: the paper's §5 fft fragment, where promotion needs
// points-to analysis. T1 is an address-taken global and the loop
// stores through a pointer parameter; MOD/REF alone must assume those
// stores can modify T1, so T1 stays in memory. Points-to analysis
// proves the pointer only reaches the output array, and T1 promotes.
//
// The example compiles the fragment under both analyses, reports the
// tag set of the stores through the pointer, and shows the resulting
// dynamic counts.
//
//	go run ./examples/precision
package main

import (
	"fmt"
	"log"

	"regpromo/internal/driver"
	"regpromo/internal/interp"
	"regpromo/internal/ir"
)

const src = `
int T1;
int X1[256];
int X2[256];

void seed(int *p) { *p = 3; }

void kernel(int *x2, int n) {
	int i;
	for (i = 0; i < n; i++) {
		T1 = (T1 * 5 + X1[i & 255]) & 65535;
		x2[i & 255] = T1;
	}
}

int main(void) {
	int i;
	int check;
	for (i = 0; i < 256; i++) X1[i] = i * 7;
	seed(&T1);
	kernel(X2, 4096);
	check = T1;
	for (i = 0; i < 256; i++) check = (check * 31 + X2[i]) & 1048575;
	print_int(check);
	return 0;
}
`

func main() {
	for _, analysis := range []driver.Analysis{driver.ModRef, driver.PointsTo} {
		c, err := driver.CompileSource("precision.c", src,
			driver.Config{Analysis: analysis, Promote: true})
		if err != nil {
			log.Fatal(err)
		}
		res, err := c.Execute(interp.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("analysis=%-8s promotions=%d ops=%d loads=%d stores=%d  output=%s",
			analysis, c.Promote.ScalarPromotions,
			res.Counts.Ops, res.Counts.Loads, res.Counts.Stores, res.Output)

		// Show what the store through x2 may touch under this
		// analysis: the whole addressed world for MOD/REF, just the
		// array for points-to.
		kernel := c.Module.Funcs["kernel"]
		for _, b := range kernel.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op == ir.OpPStore {
					fmt.Printf("  store through x2 may modify: %s\n",
						in.Tags().Format(&c.Module.Tags))
				}
			}
		}
		fmt.Println()
	}
	fmt.Println("Under MOD/REF the store through x2 may touch T1 (it is")
	fmt.Println("address-taken), so T1 cannot be promoted in the loop; the")
	fmt.Println("points-to analysis pins the pointer to X2 and unlocks it —")
	fmt.Println("the paper's fft example (§5), reduced to its skeleton.")
}
