package driver

import (
	"fmt"

	"regpromo/internal/obs"
)

// CompileMatrixWithout is CompileMatrix with the named Config field
// dropped from every pass's trie key, as if no pass declared reading
// it: a test narrows the key this way to show that the matrix
// comparison notices a field a pass reads without declaring it.
func (fe *Frontend) CompileMatrixWithout(field string, cfgs []Config, tr *obs.Tracer) ([]*Compilation, error) {
	drop, ok := map[string]readSet{
		"PointerPromote":      readPointerPromote,
		"SkipUnwrittenStores": readSkipUnwrittenStores,
		"Throttle":            readThrottle,
		"K":                   readK,
	}[field]
	if !ok {
		return nil, fmt.Errorf("no declared key field %q", field)
	}
	cs, errs := fe.compileMatrix(cfgs, tr, allReads&^drop)
	return cs, matrixError(errs)
}
