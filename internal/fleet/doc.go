// Package fleet scales the paper's single-camera computation-communication
// models to populations of cameras contending for a shared network. It is
// the bridge from the per-device analyses of internal/core (placement cost),
// internal/energy (radios, harvesters) and the two case studies
// (internal/faceauth, internal/vr) to fleet-level questions: how many
// cameras does a given uplink support, which placement keeps offload
// latency bounded as the fleet grows, and what does contention do to
// harvest-constrained devices sharing the air with bandwidth-hungry ones.
// The network is an arbitrary-depth tier tree — cameras attach to a named
// tier and their offloads climb every link from there to the root, paying
// transmission plus one-way propagation delay at each hop; one shared
// uplink (the flat model) and a two-tier gateway topology are input forms
// of the same tree — and classes can carry a runtime placement cost table
// that an adaptive per-class controller walks as observed conditions
// change.
//
// This comment documents the scenario surface section by section;
// ARCHITECTURE.md at the repository root maps the machinery underneath —
// the event loop and its heap discipline, the link layout and tie-break
// order, the PRNG seed families, the placement controllers, the two
// telemetry paths, and the fleetvet-enforced determinism invariants.
//
// # Scenario format
//
// A simulation run is described by a Scenario, decodable from JSON.
// ParseScenario is strict — an unknown field is an error, so a typoed
// knob cannot silently run as if absent — and `camsim fleet -scenario
// file.json` (or `camsim topo -scenario`) runs such a file directly:
//
//	{
//	  "name": "mixed-1000",
//	  "seed": 1,
//	  "duration_sec": 10,
//	  "uplink": {"gbps": 10, "contention": "fair-share"},
//	  "classes": [
//	    {"name": "fa", "count": 700, "fps": 1, "arrival": "poisson",
//	     "frame_bytes": 400, "offload_prob": 0.05, "compute_sec": 0.02,
//	     "capture_j": 3.3e-6, "compute_j": 1.1e-6,
//	     "tx_fixed_j": 2e-6, "tx_per_byte_j": 4.8e-10,
//	     "harvest_w": 2e-4, "store_j": 0.07, "queue_depth": 4},
//	    {"name": "vr", "count": 300, "fps": 30, "frame_bytes": 1122000,
//	     "compute_sec": 0.0316, "capture_j": 0.005, "compute_j": 0.316,
//	     "tx_fixed_j": 1e-4, "tx_per_byte_j": 4e-8}
//	  ]
//	}
//
// Class names are unique: dynamics entries, compute service_sec entries
// and federated participants name classes, so a name means one class.
// Each class instantiates Count identical cameras that capture frames at
// FPS (periodic with a random phase, or Poisson), spend ComputeSeconds of
// in-camera processing per frame, then offload FrameBytes with probability
// OffloadProb over the shared uplink. Classes with HarvestW > 0 are
// energy-harvesting: a camera skips frames its capacitor cannot pay for.
// The class builders FaceAuthClass and VRClass derive these parameters
// from the existing single-camera models (core.EnergyPipeline for the
// progressive-filtering face-authentication camera;
// core.ThroughputPipeline.Cost plus vr.PaperByteModel and
// platform.PaperThroughput for a Fig. 10 VR placement).
//
// A periodic camera captures every 1/FPS seconds from a phase its own
// stream draws, a joiner from a phase inside one period after its join.
// Its class keeps time on a clock of its own that runs at the declared
// FPS: an "fps_profile" step of multiplier m makes that clock run m times
// as fast from the step on, so what is left of every camera's pending
// period shortens or stretches at once, and a capture the step pushes
// past Duration does not fire while one it pulls before Duration does.
// Without a step the clock is real time, and each camera captures at
// exactly the times its phase and period give. A Poisson class's N
// cameras are each a Poisson process at FPS, and together they are one
// Poisson process at N × FPS whose every arrival marks a camera drawn
// uniformly (superposition and uniform marking). The run draws exactly
// that: one arrival stream per Poisson class, seeded by the scenario seed
// and the class index in a family of its own, with one arrival pending
// at a time, not one capture per camera. The stream is memoryless, so a
// join, a leave or an "fps_profile" step only redraws the pending arrival
// from that instant, and the new rate holds from the step on. So a step
// takes effect at once under either arrival pattern. Every camera's own
// stream still draws each of its frames' offload decisions. So a Poisson
// class's captures are a function of the seed, its class index and its
// membership: a joiner re-deals its own class's arrivals and no other
// class's. Validation rejects a class whose cameras, joiners included, at
// its fastest rate (its largest "fps_profile" multiplier above 1) would
// make more than 2^40 captures over the run: past that, a capture period
// spans fewer than 2^12 units in the last place of the clock, and near
// 2^52 a capture would re-arm at the instant it fired.
//
// # Tiered topology
//
// A "gateways" section makes the network two-tier: classes name the
// gateway their cameras attach to ("gateway"), offloads cross the finite
// camera→gateway link first and the shared WAN link (the top-level
// "uplink") second, and each tier runs its own contention discipline.
// Classes without a gateway attach directly to the WAN. Per-tier served
// bytes and utilization come back in Result.Tiers.
//
//	"uplink": {"gbps": 4, "contention": "fair-share"},
//	"gateways": [
//	  {"name": "gw-a", "uplink": {"gbps": 2, "contention": "fair-share"}},
//	  {"name": "gw-b", "uplink": {"gbps": 2, "contention": "fifo"}}
//	],
//
// The top-level "uplink" alone (the flat form) and "uplink" with
// "gateways" are input forms of a tier tree: Normalize, which
// ParseScenario and Run apply, rewrites them into "tiers" — each gateway
// a leaf tier whose parent is the root "wan", in declaration order, then
// "wan" itself carrying the top-level uplink — and moves each class's
// "gateway" into "tier". After ParseScenario, edit Scenario.Tiers:
// Uplink and Gateways are zero, and setting them again is an error
// (Gateways beside Tiers always, an Uplink unless it restates the root's).
//
// # Tier trees
//
// A "tiers" section generalizes the network to an arbitrary-depth tree
// (camera → gateway → metro → core): each tier names its parent — exactly
// one, the root, leaves it empty — and carries its own uplink plus a
// one-way "propagation_sec" delay. Classes attach by tier name ("tier";
// empty attaches at the root), and a transfer rides every link from its
// attach point to the root, accruing per-hop transmission and propagation
// time; completion latency is capture to arrival in the cloud, one root
// propagation delay after the root link drains.
//
//	"tiers": [
//	  {"name": "gw-a",  "parent": "metro", "uplink": {"gbps": 2}, "propagation_sec": 0.0002},
//	  {"name": "gw-b",  "parent": "metro", "uplink": {"gbps": 2}, "propagation_sec": 0.0002},
//	  {"name": "metro", "parent": "core",  "uplink": {"gbps": 4}, "propagation_sec": 0.002},
//	  {"name": "core",                     "uplink": {"gbps": 8}, "propagation_sec": 0.01}
//	],
//
// "tiers" is mutually exclusive with "gateways", and a top-level "uplink"
// beside it may only restate the root tier's; a class's "gateway" is a
// synonym for "tier". The flat and gateway forms are rewritten into
// depth-1 and depth-2 trees with the root named "wan" (see Tiered
// topology), so the tree is the one runtime model; in those forms the
// name "wan" is reserved. Per-tier stats come back in Result.Tiers —
// served bytes, completed transfers, utilization, depth and the
// hop-delay total Transfers × PropagationSec — and Result.TierNamed finds
// a tier by name. DeepTopologyScenario builds the
// gateway→metro→core demo chain behind `camsim topo -depth`.
//
// # Downlink
//
// A tier may declare a "downlink" — the parent→tier link (cloud→root at
// the root), making the tree bidirectional:
//
//	{"name": "gw-a", "parent": "core",
//	 "uplink":   {"gbps": 2, "contention": "fair-share"},
//	 "downlink": {"gbps": 1, "contention": "fair-share", "propagation_sec": 0.0002},
//	 "propagation_sec": 0.0002}
//
// A downlink has its own capacity, contention discipline ("fair-share"
// defaulted, or "fifo") and one-way "propagation_sec"; it is a Link like
// any uplink, just pointed the other way. Downlinks are optional and
// independent: declaring one changes nothing upstream — frame traffic
// never rides them, link indices and tie-breaks of the existing uplinks
// are preserved, and a scenario without downlinks is byte-identical to
// what it produced before they existed. Traffic appears on a downlink
// only when something routes root→leaf — today, the federated model
// broadcast below. Per-tier downlink stats come back in TierStats
// (DownGbps, DownServedBytes, DownTransfers, DownlinkUtilization, and
// the propagation total DownPropDelayTotal).
//
// # Compute tiers
//
// A tier may declare a "compute" section — a finite pool of cores that
// every offloaded frame must be serviced by before the tier's uplink
// forwards it, making latency capture → transit → queueing + service →
// done instead of transit alone:
//
//	{"name": "gw-a", "parent": "core",
//	 "uplink": {"gbps": 4},
//	 "compute": {"cores": 1, "service_rate_fps": 16, "discipline": "fifo",
//	             "service_sec": [{"class": "fa", "sec": 0.002}]}}
//
// "service_rate_fps" prices a frame of the class's reference payload (its
// largest placement row, or its fixed frame bytes without a table; a
// tabled class's own frame bytes never count) at 1/rate core-seconds;
// a "service_sec" entry overrides that per class. Service demand scales
// with the bytes a frame actually ships — a placement that offloads an
// 11×-smaller payload needs 11× less tier service — so moving cameras
// toward in-camera compute is also what relieves a congested pool, and
// placement becomes a joint network+compute decision. Every offloading
// class crossing a compute tier must resolve a service time there;
// federated update blobs bypass the pools (they are not frames). The pool
// runs "fifo" (default: frames serialize through the cores in arrival
// order, a heavy frame head-of-line-blocking the light ones behind it) or
// "fair-share" (egalitarian processor sharing, a job never spanning
// cores).
//
// Compute feeds back into every placement decision: each placement row
// gains a deterministic delay floor — its own in-camera compute seconds
// plus the expected tier service of the bytes it ships along the attach
// path (Scenario.RowDelaySeconds) — which the energy-latency policy adds
// to the latency a step risks and the global controller uses to refuse
// energy moves whose floor, stacked on the observed p95, would break
// HighSec. Per-tier results come back in TierStats.Compute (cores,
// discipline, frames served, busy seconds, utilization, and queueing-wait
// p50/p95 from a KLL sketch), and streaming telemetry windows carry each
// pool as a "name:compute" series with capacity = cores. A scenario
// without compute sections is byte-identical to what it always produced —
// the pools, their link slots and their sketches exist only when
// configured. ComputeDemoScenario builds the undersized-gateway demo
// behind `camsim topo -compute`, and examples/compute-placement runs an
// embedded scenario of the same shape. RowDelaySeconds validates the
// scenario as Run does, so it returns an error for any scenario Run
// rejects.
//
// # Federated rounds
//
// A scenario-level "federated" section runs round-structured federated
// learning over the tier tree (package internal/fleet/fl owns the round
// accounting):
//
//	"federated": {
//	  "rounds": 4, "classes": ["fl-gw-a", "fl-gw-b"],
//	  "compute_sec": 0.6, "jitter_sec": 0.4,
//	  "model": {"layers": [400, 8, 1], "bytes_per_weight": 4, "compress": 0.5}
//	}
//
// Each round, every participating camera (all classes when "classes" is
// empty) spends compute_sec plus a seeded jitter draw of local training,
// then pushes an update blob up its attach tier's uplink, contending
// with the fleet's frame traffic. Updates are sized from the trained
// network's parameter count — nn.WeightCount(layers) × bytes_per_weight
// × compress — or fixed directly with "update_bytes". Blobs aggregate
// in-network where they land: a tier holding its full per-round fan-in
// emits one merged blob of the same size on its own uplink, so the WAN
// carries one blob per round no matter how many cameras train below.
// When the cloud's fan-in completes, the merged model ("model_bytes",
// defaulting to the uncompressed model) broadcasts back down the
// downlinks of the span — every tier with participants at or below it,
// which must all declare one — and delivery at a camera's attach tier
// starts its next round. Rounds run to completion past the capture
// duration, so every configured round reports telemetry: Result.Federated
// carries up/down/naive byte totals and per-round start, aggregation,
// end, latency and straggler p95. The FL streams are seeded independently
// of the frame-traffic streams, so adding a federated job never perturbs
// the fleet's frame arithmetic. FederatedDemoScenario builds the
// two-gateway demo behind `camsim topo -fl` and BenchmarkFederatedRound;
// examples/federated-fleet sweeps its compression knob.
//
// # Streaming telemetry
//
// A scenario-level "telemetry" section swaps the run's statistics
// accumulator, not its physics:
//
//	"telemetry": {"streaming": true, "window_sec": 10}
//
// With "streaming" set, per-class offload latencies land in mergeable
// KLL quantile sketches (package internal/fleet/quantile, capacity
// quantile.K) instead of exact per-sample slices, and the reported
// p50/p95/p99 become sketch estimates whose true rank lies within
// quantile.Eps (1%) of the requested one. What that buys is a memory
// bound: the exact path preallocates latency storage from the expected
// frame count, so a long horizon's cost grows with simulated frames,
// while a sketch's retained set is fixed — BenchmarkLongHorizon pins
// B/op flat in the frame count at 100k cameras, gated in CI. The event
// sequence is untouched either way (the adaptive controllers keep their
// own windows), so a streaming run's counters, tier stats and energy
// totals are identical to the exact run's, and a scenario without a
// telemetry section is byte-identical to what it always produced;
// TestStreamingDifferential holds the two paths against each other
// within the sketch's rank bound.
//
// A positive "window_sec" (requires "streaming") additionally emits a
// time series: half-open windows [k·W, (k+1)·W) of simulated time, the
// final window clipped at the run's end, each reporting per-class
// sketch p50/p95/p99, completed offloads, queue and energy drops, and
// every link's utilization over just that window (bytes credit at
// transfer completion, so a single window can exceed 1; the
// time-weighted mean across windows equals the run-wide utilization
// exactly). A window's counts are not kept apart from the run's: they
// are the change in the class counters since the previous window
// closed, as its utilization is the change in each link's served bytes,
// so the windows sum to the run totals by construction. Window sketches
// merge into the run-wide sketches at window close — the mergeability
// that makes per-window statistics free — and come back in
// Result.TimeSeries, renderable as JSON or long-form CSV
// (TimeSeries.WriteJSON / WriteCSV); `camsim fleet|topo -scenario
// file.json -timeseries out.csv` writes them from the command line, and
// examples/long-horizon walks a two-minute run window by window.
//
// # Fleet dynamics
//
// A scenario-level "dynamics" section turns the steady-state calculator
// into a robustness harness: a time-ordered fault/load schedule of
// "events" executed inside the same sequential event loop —
//
//	"dynamics": {"events": [
//	  {"time_sec": 2, "kind": "fps_profile",  "class": "vr", "multiplier": 2},
//	  {"time_sec": 3, "kind": "camera_join",  "class": "fa", "count": 50},
//	  {"time_sec": 4, "kind": "link_degrade", "tier": "metro", "factor": 0.25},
//	  {"time_sec": 5, "kind": "tier_outage",  "tier": "gw-a", "fallback": "gw-b"},
//	  {"time_sec": 7, "kind": "tier_recover", "tier": "gw-a"},
//	  {"time_sec": 8, "kind": "link_restore", "tier": "metro"},
//	  {"time_sec": 9, "kind": "compute_scale", "tier": "gw-b", "cores": 4}
//	]}
//
// "camera_join"/"camera_leave" churn a class: joiners continue the global
// camera-seed sequence (existing cameras' streams untouched) and leavers
// are drawn from the entry's own seeded stream; "every_sec" makes a churn
// entry recurring with exponential inter-arrival gaps from that stream —
// a seed family of its own, so churn never perturbs frame-traffic draws. A
// departed camera's in-flight frames still complete; it just captures
// nothing further. "link_degrade" rescales a tier's uplink to base ×
// factor with in-flight progress conserved (the fair-share virtual clock
// advances at the old rate first; FIFO recomputes the head's remaining
// bytes); factor 0 parks the link until "link_restore". "tier_outage"
// takes a tier down: in-flight transfers through its uplink and core
// pool are dropped and accounted, frames arriving while it is down drop
// on arrival, and directly attached classes re-home to the declared
// "fallback" tier — repricing their forwarding-energy and delay tables,
// which both controller kinds then score against — until "tier_recover"
// re-homes them back. "fps_profile" sets a class's capture-rate
// multiplier (piecewise diurnal/bursty load; the class's rate steps at
// once, periodic or Poisson), and "compute_scale" resizes a tier's core
// pool. Validation is strict per kind: unknown kinds, out-of-order times,
// ghost tiers/classes, out-of-range factors, misplaced knobs (a "class"
// is accepted only on "camera_join", "camera_leave" and "fps_profile", a
// "tier" only on the other five kinds), joins that add more than 2^22
// cameras over the run (recurring firings replayed and counted) or take
// the fleet past 2^31−1 cameras, a failing root, or an outage stranding
// attached cameras without a fallback all fail before the run starts;
// dynamics cannot combine with a federated job (dropping a round's blobs
// would deadlock its barrier).
//
// Accounting conserves every emitted frame: captured = completed +
// kept in camera + dropped (ClassStats.Offloaded, KeptInCamera and the
// three Dropped counters), with outage losses in ClassStats.DroppedOutage,
// per-tier downtime seconds and drops in TierStats, the run-wide totals
// in Result.Dynamics (Result.Total's churn and outage counts, so the
// ledger and the class table cannot disagree), and — with windowed
// telemetry — per-window availability columns (outage drops per class,
// downtime seconds and mean capacity fraction per tier) in the JSON and
// CSV series, each the change in a running total since the previous
// window. Tier
// utilization stays denominated in nominal capacity while degraded (the
// capacity-fraction column carries the degradation). A scenario without
// the section — or with an empty event list — is byte-identical to every
// release before it existed, and dynamics runs replay deterministically
// like any other. DynamicsDemoScenario builds the diurnal-swell +
// gateway-outage demo behind `camsim topo -dynamics`, and
// examples/fleet-dynamics runs an embedded scenario of the same shape.
//
// # Placement policies
//
// A class may carry a runtime cost table ("placements", ordered from
// most-offload to most-in-camera — each row a Fig. 10-style placement's
// frame bytes, compute seconds and compute joules) plus a "policy". The
// table then prices every frame, and the class's own "frame_bytes",
// "compute_sec" and "compute_j" go unused; a class without one is a table
// of one row of those fields:
//
//	"placements": [
//	  {"name": "raw",       "frame_bytes": 12400000, "compute_sec": 0.0001},
//	  {"name": "in-camera", "frame_bytes": 1122000,  "compute_sec": 0.0316,
//	   "compute_j": 0.316}
//	],
//	"policy": {"kind": "latency-threshold", "interval_sec": 0.5,
//	           "high_sec": 0.2, "move_fraction": 0.5}
//
// Every IntervalSec a per-class controller inspects the offload latencies
// completed since its last decision, and the queue and outage drops its
// class's counters gained since then (energy drops are not congestion),
// and moves a MoveFraction batch of cameras one table step, counted in
// ClassStats.Switches: "latency-threshold" escalates one way toward
// in-camera compute when the window p95 exceeds HighSec (or any frame
// was dropped for queue or outage); "hysteresis" also steps back
// toward offload when the window p95 falls below LowSec, holding inside
// the dead band; "energy-latency" (below) also weighs per-frame energy;
// "static" (the default) never moves. Which cameras move is drawn from a
// controller stream seeded by (Scenario.Seed, class), so adaptive runs
// replay byte-identically. VRAdaptiveClass builds such a class from
// core.ThroughputPipeline.CostTable over a set of Fig. 10 placements, and
// TopologyDemoScenario assembles the congested two-gateway fleet behind
// `camsim topo` and BenchmarkTopologySweep.
//
// # Energy models
//
// Energy is the second axis of every placement decision. Each placement
// row is priced in expected joules per captured frame
// (Class.PlacementEnergyPerFrame, built on energy.FrameEnergy): capture,
// the row's compute joules, and — for the offloading fraction of frames —
// the camera radio's fixed-plus-per-byte transmit cost. Tier-tree links
// additionally carry "tx_per_byte_j", the network-side forwarding energy
// per byte (energy.ForwardPerByteJ is a wired-aggregation default); a
// row's energy charges its bytes the summed per-byte cost of every hop
// between the class's attach tier and the root, so a deep path makes
// offloading proportionally more expensive. Results surface the axis in
// Result.Energy (camera joules actually charged, per-link forwarding
// joules from observed served bytes, average power, and the fleet's
// projected placement power) and per tier in TierStats.ForwardJ.
//
// The "energy-latency" policy spends that model locally: congestion keeps
// the latency-threshold rule verbatim, and otherwise the controller
// compares the two adjacent rows, moving when "energy_weight" (seconds of
// latency one joule per frame is worth) times the mean per-frame saving
// beats the latency the step risks re-adding — the observed p95 for a
// step toward offload, nothing for a step toward in-camera. An
// energy_weight of 0 therefore reproduces latency-threshold exactly.
//
// # Global controller
//
// A scenario-level "global" section runs the fleet-wide energy-aware
// controller above the per-class policies:
//
//	"global": {"epoch_sec": 1, "budget_w": 26, "high_sec": 0.5,
//	           "move_fraction": 0.5}
//
// On every epoch tick it sees the window stats of every class with a
// placements table (a class without one can never move, so it is not
// watched) across every tier and projects the fleet's placement power —
// each camera's per-frame energy at its current row times its class's
// current capture rate, an "fps_profile" multiplier included, so a class
// profiled ×2 is priced exactly like one declared at twice the rate.
// Result.Energy's projected power uses the same rate. Congested classes
// (window p95 over HighSec, or queue or outage drops) first get up to
// MoveFraction of their cameras stepped toward in-camera compute,
// admitted only while the projection stays under BudgetW. Then, while
// the projection exceeds the budget, a greedy knapsack sheds watts:
// repeatedly take the (class, direction) step with the largest marginal
// per-frame saving — ties to the class with the most p95 headroom —
// moving cameras one at a time until the fleet fits, stopping at the
// budget line rather than overshooting to the energy floor. Decisions
// land in Result.Global (per-epoch projected power before/after and
// every move with its reason), draw from their own seeded stream, and
// replay byte-identically. EnergyDemoScenario builds the uncongested
// demo behind `camsim topo -global`, where the budget — not latency — is
// what moves cameras.
//
// # Contention models
//
// The shared uplink has a finite capacity and a pluggable contention
// discipline:
//
//   - "fair-share": egalitarian processor sharing — the n in-flight
//     transfers each progress at capacity/n (simulated in O(log n) per
//     event via virtual time). Small face-auth payloads finish quickly
//     even while multi-megabyte VR frames drain.
//   - "fifo": transfers serialize in arrival order, each taking the full
//     capacity at the head of the queue. A large frame ahead of a small
//     one head-of-line-blocks it.
//
// Per-camera backpressure is modelled with QueueDepth: a frame captured
// while that many offloads are still in flight is dropped and counted.
//
// # Determinism and parallelism
//
// A run is deterministic in its Scenario: every random draw comes from a
// compact per-camera (and per-Poisson-class, per-controller) splitmix64
// stream derived from Scenario.Seed by index (never the global source),
// the event loop breaks
// ties by sequence number, and simultaneous completions across tiers
// resolve in tier order. The same seed produces byte-identical stat
// tables — `go test ./cmd/camsim -run Golden` pins this against
// checked-in goldens at GOMAXPROCS 1, 2 and 8. Independent scenario
// points sweep in parallel across GOMAXPROCS via Sweep's worker pool;
// parallelism never reorders arithmetic within a run, so sweeps stay
// reproducible too.
//
// A run is also exact in its units. Multiplying by a power of two
// commutes with correct rounding, so a scenario whose times are all
// doubled and whose rates are all halved runs to a Result whose times are
// doubled bit for bit and whose counts, joules and utilizations are
// unchanged. Likewise doubling every payload, capacity and blob size
// while halving the per-byte joules doubles exactly the bytes reported,
// and doubling every joule and watt doubles exactly the energy and power
// reported, leaving the rest unchanged. TestScalingRelations checks these
// relations on the golden scenarios and random ones, from a table giving
// every numeric field of Scenario and Result its unit. A unit error
// anywhere breaks them; a wrong formula with the right units does not,
// which the analytic and queueing-theory tests are for.
//
// # Performance
//
// The event loop is engineered to run allocation-free in steady state, so
// fleet size — not garbage — bounds throughput (BenchmarkHugeFleet runs
// 100k cameras over 41 links; BenchmarkDeepTopology pins the 10k shape
// in a single variant; both are gated in CI by cmd/benchgate against
// BENCH_topology.json):
//
//   - Per-event cost: every pending event but a frame's stages belongs to
//     an owner holding at most one key in the event queue's owner index —
//     a class, a class's controller, the global controller, the fault
//     schedule's cursor, a churn entry, a federated participant — so a
//     control tick, epoch, federated ready or dynamics entry is a re-key
//     in place, or a removal, of its owner's key, O(log owners) with no
//     interface boxing (container/heap cost one allocation per Push). A
//     capture is a re-key in place of its class's key, O(log owners): a
//     Poisson class's key is its pending arrival, and a periodic class's
//     is its ring's front, which a capture moves one period on to the
//     ring's back (an append, since a re-arm follows every pending capture
//     of its class) before re-keying the class at the new front's time,
//     t0 + (x − x0) / m on the class's clock. A rate step is O(log
//     owners) too: it restarts the clock and re-keys one class. A joiner's
//     first capture shifts the captures after it in its ring, O(class
//     size), at a few hundred joins a run. A frame's fixed-delay stage —
//     in-camera compute, a hop's propagation, the root's, a federated
//     blob's — is one pop from a delay line: a ring read plus a re-key in
//     place in the index of line heads, O(log lines) with one line per
//     distinct delay value (4 on a 100k-camera fleet, where 80% of events
//     are stages). On top come O(log n) fair-share virtual-time accounting
//     on the link and the link index: an O(1) peek at the earliest
//     completion, and an O(log busy links) re-key in place after each
//     Start or Finish. The fair-share servers and the FIFO servers' busy
//     cores are one queue.Heap over their job payload, held to
//     container/heap's exact pop order by TestHeapsMatchContainerHeap. The
//     owner keys, the line heads and the link index are one queue.Index, a
//     heap holding at most one key per numbered source, held to a scan of
//     its keys by TestIndexMatchesScan. The delay lines and the FIFO
//     servers' waiting queues are one queue.Ring, a power-of-two ring, so
//     wrap-around is a mask, not a modulo.
//   - Event size: an event is 24 bytes — time, the scheduling sequence
//     number with the kind in its low 4 bits, and two int32s naming the
//     subject (camera, class, participant, schedule entry or transfer)
//     and a class, link or round. A 100k-camera periodic fleet keeps
//     ~100k captures resident, one per camera in its class's ring, so the
//     earlier 64-byte, one-cache-line event made the queue cache-miss
//     bound; the rings are read and written in order, front to back, and
//     only their fronts are keyed, one key per class (32 on a fleet of
//     32 classes of any size, down from one heap event per camera). A
//     Poisson fleet keeps one arrival per class. A frame's capture time
//     and payload live in its transfer record, allocated from the recycled
//     slab at capture, so the ready event carries only the transfer id.
//     Every sift moves through a hole: the moving key is held aside,
//     parents or smaller children shift into the gap, and the key is
//     written once.
//   - Row table: a capture reads its camera's row from one flat table of
//     every class's rows — payload bytes, compute joules and the delay
//     line of its in-camera compute — at the class's base plus the
//     camera's placement, built once from Class.rows. A class without a
//     placements table owns one row there, so a capture never asks
//     whether its class has a table.
//   - Pop order: (time, sequence) is a total order — the event queue
//     numbers every event it schedules once, so sequence numbers are
//     unique and packing the kind under them orders exactly like the bare
//     counter — and every correct min-heap pops a total order in the same
//     sequence. An owner's key carries the number its event was
//     scheduled under, not the owner's own number, so the owner numbering
//     orders nothing; the schedule cursor keys each entry under the
//     number newEngine reserved for it. A delay line keeps each event's sequence
//     number, and is sorted as filed: loop time never decreases, and
//     adding the line's constant delay is monotone in floating point. A
//     ring keeps each capture's sequence number and its time x on the
//     class's clock, sorted by (x, sequence): newEngine sorts it once, a
//     capture that fires at x re-arms at x + 1/FPS, after every other
//     pending capture of its class, each armed at an x no later and
//     rounding being monotone, and a joiner is filed at its place. The
//     clock maps x to real time monotonically, and with no rate step it
//     is the identity, t0 = x0 = 0 and m = 1, so each capture's key is
//     its x to the bit, the time one heap event per camera would carry.
//     So the earlier of the earliest owner key and the earliest line
//     front is the same event one heap of everything would pop. The
//     layout, sift, line, ring and owner changes therefore cannot change
//     any output of a run without a periodic rate step;
//     TestHeapsMatchContainerHeap, TestRandomScenarioInvariants' pinned
//     digests and the goldens hold that. The link index's keys, (finish
//     time, link index), are unique too, so its minimum is the one an
//     O(links) scan finds (TestLinkIndexMatchesScan).
//   - Percentiles: finalize selects the three nearest ranks it reports
//     (p50, p95, p99) in increasing order, each within the part of the
//     samples right of the previous one, instead of sorting every
//     class's samples and the merged total; the values are identical to
//     sorted nearest-rank reads. The fleet total is selected across the
//     class slices at once, each round partitioning every slice's window
//     around one pivot, so no slice of all the samples is made. A
//     controller's p95 is selected by the same routine over its part of
//     its class's latency log, as two spans split at the other watching
//     controller's start when that falls inside it, so no value moves
//     across the start of what the other has still to read. A sketch
//     answers p50, p95 and p99 by sorting each of its levels in place
//     and walking them merged (quantile.Sketch.Quantiles), with no
//     buffer of its own.
//   - Memory model: a camera is 16 bytes — its random stream embedded by
//     value (an 8-byte splitmix64 state, prng, instead of a *rand.Rand
//     whose lagged-Fibonacci source is ~5 KB of heap per camera), and an
//     int32 placement row and in-flight count — so 100k cameras cost 1.6
//     MB of inline state rather than ~500 MB of pointer-chased boxes. A
//     camera's class comes with each capture event: a periodic capture's
//     from its ring, and a Poisson arrival names its camera and class
//     when it is drawn. A departure is one bit per camera in a bitmap
//     (3.75 kB for 30k cameras) that only a schedule with a camera_leave
//     entry allocates. A harvesting run adds 16 bytes per camera for its
//     store, in a side table that other runs never allocate. A frame's
//     40-byte transfer record carries its class, so after capture the
//     frame reads its camera only to free its queue slot. Transfer ids
//     are recycled through a free list linked through the released
//     records themselves, in the 4 bytes that would pad their three
//     int32s, and the slab grows by append, so transfer storage follows
//     the peak in-flight population (~3.7k records on a 100k-camera
//     fleet) instead of the camera count or the total frame count, and
//     the free list costs nothing beside it. The camera slab, the
//     harvest table, the departure bitmap and each class's camera list
//     are sized exactly before the run and never regrow: the declared
//     cameras plus those the schedule's joins add, counted when the
//     scenario is validated by replaying each camera_join entry's
//     firings on a copy of its stream (nothing else draws from it, and
//     its re-arms stop at Duration); validation rejects joins that add
//     more than 2^22 cameras. Only a churn entry owns a stream, since no
//     other kind draws. A periodic class's ring is a segment of one slab
//     of 24-byte captures, sized the same way, since each camera,
//     departed or not, has at most one capture pending. The owner index
//     is sized once, for every owner the run has — each class and its
//     controller's slot, the global controller, and the schedule's
//     cursor and churn entries or the federated participants — with one
//     8-byte payload slot each, and never regrows: it counts classes and
//     subsystems, not cameras, and frames in flight wait on delay lines.
//     The schedule waits behind its cursor: each entry's first firing
//     moves it to the next entry's, under the scheduling number reserved
//     for it before the run, so entries pop in the order a heap of the
//     whole schedule would give.
//     Each line's ring grows to its own peak, which
//     on a line of delay d fed at r events per second is about r × d.
//     The per-class latency slices are preallocated from FPS × Duration
//     × Count estimates plus four Poisson standard deviations, so the
//     loop does not regrow them, and the percentiles read them where
//     they lie; they belong to the run's accumulator, so a Result keeps
//     no samples once returned. A class that a controller watches keeps
//     one latency log, whether its own controller, the global one (which
//     watches only classes with a table) or both watch it: each reads
//     from where its last decision left off, and the log then drops the
//     prefix every watcher has read. The log is sized the same way over
//     the longer of its watchers' decision periods (IntervalSec,
//     EpochSec), a class no controller watches has none, and a log
//     holds latencies only, since a decision reads its drops from the
//     class counters.
//     Every decision gathers its move candidates in one engine buffer,
//     so a decision allocates nothing once the buffer has grown. A
//     sketch keeps all of its levels in one array: K slots, all that a
//     window sketch that never compacts uses, then room for the largest
//     size any height reaches (1303 items), doubled only by a merge
//     that needs more. So a warm sketch allocates nothing, and the
//     time-series CSV is written row by row through one reused buffer.
//     A run reads a fault schedule from the caller's scenario unless a
//     churn entry needs its Count filled in.
//   - Seeded-stream shift: moving from rand.Rand's ziggurat draws to the
//     prng's inversion-based ExpFloat64 / 53-bit Float64 shifted every
//     seeded stream once (goldens were regenerated, as for the PR 3 seed
//     derivation fix); the streams are pinned by TestPRNGReferenceVectors
//     and stable from then on.
package fleet
