// Package quantile provides the fleet simulator's two quantile
// estimators: the exact nearest-rank percentile over a sorted sample
// slice (NearestRank — the reference definition every stats surface
// shares), and a mergeable bounded-error streaming sketch (Sketch) for
// runs too long to hold their exact sample sets.
//
// # Nearest rank
//
// NearestRank implements the textbook nearest-rank percentile: the
// q-quantile of n sorted samples is the element with 1-based rank
// ⌈q·n⌉ (clamped to [1, n]). For q = 0.95 and n = 100 that is rank 95 —
// not index int(0.95·99) = 94, the floor-biased expression this helper
// replaced, which systematically read one sample low near the tail.
//
// # Streaming sketch
//
// Sketch is a KLL sketch (Karnin, Lang, Liberty, "Optimal Quantile
// Approximation in Streams", FOCS 2016): a hierarchy of compactors
// where level h holds items of weight 2^h; a full compactor sorts
// itself and promotes every other item — an offset drawn from a seeded
// coin — to the level above at doubled weight. Capacities decay
// geometrically (c = 2/3) below the top compactor of K = 400, read from
// an integer table (⌈K·2^d/3^d⌉ at depth d, never under 2), so a sketch
// holds O(K) items regardless of stream length, and queries answer
// nearest-rank over the weighted survivors. A query sorts each level in
// place and answers from one merged walk over the sorted levels, so it
// allocates nothing; like Add and Merge, it is not safe for concurrent
// use.
//
// The error model is rank error: for any q, Quantile(q) is a value
// whose true rank lies within Eps·n of ⌈q·n⌉ with high probability —
// Eps = 0.01 at K = 400, the bound the fleet package documents and its
// differential tests assert. Two sketches Merge losslessly in weight
// (the merged count is the sum) with the same bound, which is what
// makes per-window — and eventually per-shard — sketches composable
// into run-wide quantiles.
//
// Determinism: the compaction coin is a splitmix64 stream seeded by a
// fixed constant at construction, never the global math/rand source, so
// the same insertion order always produces the identical sketch and the
// identical query answers — the property the simulator's byte-identical
// golden contract requires. ARCHITECTURE.md at the repository root shows
// where the sketches sit in the simulator's telemetry paths; the
// Example functions in this package's tests show the API.
//
// # Storage
//
// A sketch keeps all of its levels in one []float64, the layout of
// Apache DataSketches' KLL sketch: free space first, then level 0, up
// to the top level at the end of the array, each level an offset range.
// Add writes just below level 0. A compaction sorts its level, packs
// the promoted items against the level above, keeps an odd leftover
// below them, and shifts the levels beneath it up into the freed slots.
// The offsets sit in a fixed array of 65 — a uint64 count allows 64
// levels — so growing the height allocates nothing.
//
// The array is sized so that it stops moving. NewSketch gives it K
// slots, all that a window sketch which never compacts needs. The first
// growth past K makes room for the capacities of all 64 levels together
// (1303 items), the most a sketch of any height holds, so no sequence
// of Adds outgrows it. Merge
// appends all of the other sketch's items before it compresses, so it
// needs room for both sketches at once; a merge short of room doubles
// the array, and since a sketch at rest holds fewer than 1303 items, no
// array passes 2606 slots. So a warm sketch — one whose array has
// reached the size its use needs — allocates nothing in Add, Merge,
// Reset or a query: a million Adds into a new sketch allocate once, and
// a telemetry window's cycle of Adds, query, Merge into the run sketch
// and Reset allocates nothing once both arrays are grown.
//
// Only each level's multiset of items decides any output: compaction
// and queries sort a level before they read it. So the layout moves no
// answer against the one-slice-per-level sketch it replaced, which the
// package's tests keep as a reference and check step by step (values
// that compare equal but differ in bits, −0 and +0 or NaNs, are the one
// case where a sort's order among equals could show).
package quantile
