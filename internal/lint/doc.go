// Package lint is fleetvet: a repo-specific static-analysis suite that
// machine-checks the determinism invariants everything in this
// reproduction leans on — byte-identical goldens across GOMAXPROCS
// 1/2/8, pinned per-entity PRNG streams, and the streaming-vs-exact
// differential. The rules target bug classes this repo has actually
// hit: goldens that mysteriously shifted PRs after the change that
// broke them (PRs 3, 5 and 7), and hand-maintained deep-copy lists the
// chore PRs had to remember by hand (PRs 6 and 7).
//
// Run it as:
//
//	go run ./cmd/fleetvet ./...
//
// It exits 0 on a clean tree and 1 with file:line:col diagnostics
// otherwise; the CI lint job and the nightly matrix both gate on it.
// ARCHITECTURE.md at the repository root explains the determinism
// contract these rules defend and how they fit the simulator's design.
//
// # Rules
//
// detmap — flags `for ... range m` over a map anywhere under
// internal/fleet. Go randomizes map iteration order per run, so any
// body that can observe the order (emitting output, accumulating,
// scheduling work) makes a seeded run diverge. The one shape accepted
// as order-insensitive by construction is collection: a body consisting
// solely of `xs = append(xs, ...)` statements whose targets are all
// passed to a sort.* or slices.* call later in the same function.
//
// detsource — flags nondeterministic value sources: time.Now and
// time.Since (simulated time comes from the event loop, never the host
// clock), the global math/rand top-level draw functions (the shared
// stream is seeded per process, not per scenario), and the
// rand.New/rand.NewSource constructor family (a second PRNG kind means
// a second stream to pin and regenerate goldens for). prng.go — the
// value-embedded splitmix64 stream every seeded draw must flow through
// — is the one exempt file; referring to math/rand types is fine
// anywhere.
//
// detconc — flags concurrency in the deterministic core: go statements,
// channel types and operations (send, receive, range, select), and
// references to sync or sync/atomic. One run is one sequential event
// loop; parallelism exists only between runs. sweep.go's worker pool —
// which parallelizes across already-independent scenarios — is
// allowlisted site by site with annotations.
//
// floatsum — flags floating-point `+=` (or `x = x + ...`) inside a
// map-range loop. Float addition is not associative, so a total folded
// in randomized map order drifts in the last bits from run to run.
// Integer accumulation commutes exactly and is not flagged.
//
// scenariocopy — walks the Scenario type graph (every nested section,
// fl.Config included) and requires each field to be exported,
// json-tagged, and plain data (no chan, func or interface anywhere in
// its type). The strict decode / re-marshal round trip, the
// reflect.DeepEqual idempotency check and the fuzz harness's
// reflection-based deep copy all depend on exactly that shape, so a new
// scenario section is covered by all three the moment it compiles.
//
// # Suppressing a diagnostic
//
// A comment of the form
//
//	//fleetvet:allow <reason>
//
// on the flagged line, or on the line directly above it, silences every
// diagnostic at that line. The reason is mandatory — it should say why
// the site cannot perturb a seeded run — and an annotation without one
// is itself reported.
//
// # Testing analyzers
//
// Each rule has a golden-diagnostic package under testdata/src/<rule>:
// ordinary Go files where a comment `// want "regexp"` on a line
// asserts a diagnostic matching the regexp there (several per line
// allowed), and every unannotated line asserts silence. The harness in
// harness_test.go loads the package with the same loader the driver
// uses, so the tests exercise real go/types object resolution, not
// string matching.
package lint
