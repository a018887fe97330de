package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestExamplesListingsOnEveryBackend replays every committed
// examples/<name>/listing.bh (generated by cmd/genlistings from the
// examples' own recordings) on the one execution engine in each mode the
// CLI offers — async, unfused, and both — raw and optimized, and requires
// each to print byte-identical output to the default synchronous fused
// run.
func TestExamplesListingsOnEveryBackend(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "listing.bh"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 7 {
		t.Fatalf("found %d listings %v, want 7 (run `go run ./cmd/genlistings`)", len(paths), paths)
	}

	for _, path := range paths {
		t.Run(filepath.Base(filepath.Dir(path)), func(t *testing.T) {
			for _, base := range [][]string{nil, {"-O"}} {
				var want strings.Builder
				if err := run(append(base[:len(base):len(base)], path), strings.NewReader(""), &want); err != nil {
					t.Fatalf("%v: %v", base, err)
				}
				if want.Len() == 0 {
					t.Fatalf("%v: listing printed nothing", base)
				}
				for _, extra := range [][]string{{"-async"}, {"-no-fusion"}, {"-no-fusion", "-async"}} {
					args := append(append(base[:len(base):len(base)], extra...), path)
					var got strings.Builder
					if err := run(args, strings.NewReader(""), &got); err != nil {
						t.Fatalf("%v: %v", args, err)
					}
					if got.String() != want.String() {
						t.Errorf("%v diverged from %v:\n--- %v\n%s--- %v\n%s",
							args, base, base, want.String(), args, got.String())
					}
				}
			}
		})
	}
}
