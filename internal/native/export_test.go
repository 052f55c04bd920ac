package native

import "regpromo/internal/interp"

// DecodeWire exposes the subprocess result decoder to the tests.
var DecodeWire = decodeWire

// EnsureArtifact builds, or verifies and reuses, p's plugin or binary
// in dir without loading it, and returns the artifact's path.
func EnsureArtifact(p *interp.Program, pluginMode bool, dir string) (string, error) {
	src := p.NativeSource(true)
	key := cacheKey(src)
	path := artifactPath(dir, key, pluginMode)
	return path, ensureBuilt(dir, key, src, path, pluginMode)
}
