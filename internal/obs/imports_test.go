package obs

import (
	"errors"
	"go/build"
	"io/fs"
	"path/filepath"
	"testing"
)

// TestOnlyDriverAndBenchImportObs pins the telemetry architecture: the
// trace is the one record, and only the driver (which opens spans and
// fills pass records) and bench (which reads them) may import this
// package. An analysis, pass or engine that wants to report a number
// returns it in its result or pass extras instead; a later counter
// cannot bring a process-wide channel back unnoticed. Test files count
// too. Commands and the perfbench module sit outside internal/ and are
// not checked.
func TestOnlyDriverAndBenchImportObs(t *testing.T) {
	const self = "regpromo/internal/obs"
	allowed := map[string]bool{
		self:                       true,
		"regpromo/internal/driver": true,
		"regpromo/internal/bench":  true,
	}
	root := ".." // internal/
	checked := 0
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := "regpromo/internal"
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		checked++
		if allowed[path] {
			return nil
		}
		for _, imports := range [][]string{pkg.Imports, pkg.TestImports, pkg.XTestImports} {
			for _, imp := range imports {
				if imp == self {
					t.Errorf("%s imports %s; only internal/driver and internal/bench may", path, self)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 20 {
		t.Fatalf("walked only %d packages under internal/; the walk is broken", checked)
	}
}
