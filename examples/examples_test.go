// Package examples holds only the test that pins every example's output.
package examples

import (
	"bytes"
	"flag"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite stdout.golden files")

// TestExampleOutputs builds every example, runs each at GOMAXPROCS 1 and 8,
// and compares its stdout byte-for-byte with <name>/stdout.golden, so a
// change that moves any example's numbers shows up in `go test ./...`.
// Regenerate with `go test ./examples -update`.
func TestExampleOutputs(t *testing.T) {
	statModuleSources(t)
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dirs, err := filepath.Glob("*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no examples found")
	}
	for _, m := range dirs {
		name := filepath.Dir(m)
		t.Run(name, func(t *testing.T) {
			var first []byte
			for _, procs := range []string{"1", "8"} {
				cmd := exec.Command(filepath.Join(bin, name))
				cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs)
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("GOMAXPROCS=%s: %v\n%s", procs, err, stderr.Bytes())
				}
				if first == nil {
					first = out
				} else if !bytes.Equal(out, first) {
					t.Fatalf("output at GOMAXPROCS=%s differs from GOMAXPROCS=1", procs)
				}
			}
			golden := filepath.Join(name, "stdout.golden")
			if *update {
				if err := os.WriteFile(golden, first, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(want, first) {
				t.Fatalf("%s stdout diverged from %s.\ngot:\n%s\nwant:\n%s", name, golden, first, want)
			}
		})
	}
}

// statModuleSources stats every .go file of the module. The examples are
// built by a child go build, so this test binary imports nothing of the
// module, and Go's test cache would key a pass only on the goldens it
// reads: an edit that moves an example's output would replay a stale
// pass. A file the test stats is part of the cache key, so after this
// any source edit re-runs the test. Dot-directories (.git, benchmark
// build caches) are skipped.
func statModuleSources(t *testing.T) {
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != ".." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, ".go"):
			_, err = os.Stat(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
