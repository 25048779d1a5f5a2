package distmincut

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestProtocolPackagesHoldNoRandomState keeps the engine and the exact
// pipeline's protocols free of random generators. The engine is a
// deterministic network simulator, and a protocol that needs a coin
// hashes it from a seed it carries (proto.SeedHash), so no package
// here may import math/rand. internal/sampling is exempt: its goStream
// evaluates math/rand's frozen stream and falls back to rand.NewSource.
func TestProtocolPackagesHoldNoRandomState(t *testing.T) {
	for _, dir := range []string{"internal/congest", "internal/mst", "internal/proto", "internal/packing", "internal/respect"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			checked++
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if p == "math/rand" || strings.HasPrefix(p, "math/rand/") {
					t.Errorf("%s imports %s: derive coins from a seed with proto.SeedHash instead", path, p)
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: no Go files found", dir)
		}
	}
}
