package lintutil

import (
	"os"
	"path/filepath"
	"testing"
)

// TestDeterministicPkgsExist keeps the determinism linters' coverage from
// eroding silently: a pipeline package that is merged or renamed without
// updating deterministicPkgs would simply stop being linted. Every name
// in the set must be a package directory under internal/.
func TestDeterministicPkgsExist(t *testing.T) {
	for name := range deterministicPkgs {
		dir := filepath.Join("..", "..", name)
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			t.Errorf("deterministicPkgs lists %q, but internal/%s is not a directory (err %v)", name, name, err)
			continue
		}
		if src, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(src) == 0 {
			t.Errorf("deterministicPkgs lists %q, but internal/%s holds no Go files", name, name)
		}
	}
}
