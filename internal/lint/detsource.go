package lint

import (
	"go/ast"
	"go/types"
)

// Detsource flags nondeterministic value sources inside the simulation
// packages: wall-clock reads (time.Now, time.Since) and any use of
// math/rand — the shared global stream's top-level draw functions and
// the rand.New/rand.NewSource constructors alike. Every seeded draw in
// the deterministic core must flow through the value-embedded splitmix64
// prng, whose streams are pinned by reference vectors; prng.go itself,
// the one sanctioned home of that stream, is exempt. Referring to
// math/rand *types* (rand.Rand, rand.Source) is fine anywhere — only
// calls draw values.
var Detsource = &Analyzer{
	Name:  "detsource",
	Doc:   "seeded draws must come from the value-embedded prng, never the clock or math/rand",
	Scope: "internal/fleet",
	Run:   runDetsource,
}

// detsourceExemptFile is the one file allowed to touch math/rand: the
// prng implementation itself.
const detsourceExemptFile = "prng.go"

// randConstructors are the math/rand entry points that make new seeded
// generators — forbidden because a second PRNG family means a second
// stream to pin, migrate and regenerate goldens for.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDetsource(p *Pass) {
	for _, f := range p.Files {
		if p.Filename(f.Pos()) == detsourceExemptFile {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, path, ok := p.PkgFunc(sel)
			if !ok {
				return true
			}
			if _, isFunc := obj.(*types.Func); !isFunc {
				return true // types and constants are inert
			}
			switch path {
			case "time":
				if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
					p.Reportf(sel.Pos(), "wall-clock read time.%s: simulated time comes from the event loop, never the host clock",
						sel.Sel.Name)
				}
			case "math/rand", "math/rand/v2":
				if randConstructors[sel.Sel.Name] {
					p.Reportf(sel.Pos(), "rand.%s outside %s: seeded draws must flow through the value-embedded splitmix64 prng",
						sel.Sel.Name, detsourceExemptFile)
				} else {
					p.Reportf(sel.Pos(), "global math/rand draw rand.%s: the shared stream is seeded per process, not per scenario",
						sel.Sel.Name)
				}
			}
			return true
		})
	}
}
