package fleet

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// twoGatewaySeed is the two-tier "gateways" form with an adaptive
// placement table; TestZeroPropagationTiersMatchLegacyGateways pins the
// tier tree Normalize rewrites it into.
const twoGatewaySeed = `{
	  "name": "two-gw", "seed": 7, "duration_sec": 8,
	  "uplink": {"gbps": 4, "contention": "fair-share"},
	  "gateways": [
	    {"name": "gw-a", "uplink": {"gbps": 2, "contention": "fair-share"}},
	    {"name": "gw-b", "uplink": {"gbps": 2, "contention": "fifo"}}
	  ],
	  "classes": [
	    {"name": "vr-a", "count": 4, "fps": 30, "gateway": "gw-a",
	     "capture_j": 5e-3, "tx_fixed_j": 1e-4, "tx_per_byte_j": 4e-8,
	     "placements": [
	       {"name": "S~", "frame_bytes": 12361551, "compute_sec": 0.0001},
	       {"name": "full", "frame_bytes": 1122000, "compute_sec": 0.0316, "compute_j": 0.316}
	     ],
	     "policy": {"kind": "latency-threshold", "interval_sec": 0.5,
	                "high_sec": 0.2, "move_fraction": 0.5}},
	    {"name": "fa-b", "count": 60, "fps": 1, "arrival": "poisson",
	     "gateway": "gw-b", "frame_bytes": 400, "offload_prob": 0.05,
	     "compute_sec": 0.02, "harvest_w": 2e-4, "store_j": 0.07}
	  ]
	}`

// fuzzSeed is one seed-corpus input and its verdict: wantErr is empty
// when ParseScenario must accept the input, else its whole error, which
// names the reason the seed's comment gives for rejecting it.
type fuzzSeed struct {
	json, wantErr string
}

// Seed corpus: the examples/fleet-sweep flat scenario, the tiered
// topology + policy format, and a few near-miss inputs.
var fuzzSeeds = []fuzzSeed{
	// flat mixed fleet (examples/fleet-sweep)
	{`{
	  "name": "corridor-mixed", "seed": 1, "duration_sec": 20,
	  "uplink": {"gbps": 1, "contention": "fair-share"},
	  "classes": [
	    {"name": "faceauth-door", "count": 120, "fps": 1, "arrival": "poisson",
	     "frame_bytes": 400, "offload_prob": 0.1, "compute_sec": 0.02,
	     "capture_j": 3.3e-6, "compute_j": 3e-7,
	     "tx_fixed_j": 2e-6, "tx_per_byte_j": 4.8e-10,
	     "harvest_w": 2e-4, "store_j": 0.07},
	    {"name": "vr-lobby", "count": 12, "fps": 30,
	     "frame_bytes": 1122000, "compute_sec": 0.0316,
	     "capture_j": 5e-3, "compute_j": 0.316,
	     "tx_fixed_j": 1e-4, "tx_per_byte_j": 4e-8}
	  ]
	}`, ""},
	// tiered topology with an adaptive placement table
	{twoGatewaySeed, ""},
	// hysteresis policy
	{`{"duration_sec": 2, "uplink": {"gbps": 1},
	  "classes": [{"name": "c", "count": 2, "fps": 5,
	    "placements": [{"frame_bytes": 1000}, {"frame_bytes": 10}],
	    "policy": {"kind": "hysteresis", "high_sec": 0.5}}]}`, ""},
	// arbitrary-depth tier tree with per-hop propagation delay
	{`{
	  "name": "deep", "seed": 5, "duration_sec": 4,
	  "tiers": [
	    {"name": "gw-a", "parent": "metro", "uplink": {"gbps": 2}, "propagation_sec": 0.0002},
	    {"name": "gw-b", "parent": "metro", "uplink": {"gbps": 2, "contention": "fifo"}, "propagation_sec": 0.0002},
	    {"name": "metro", "parent": "core", "uplink": {"gbps": 4}, "propagation_sec": 0.002},
	    {"name": "core", "uplink": {"gbps": 8}, "propagation_sec": 0.01}
	  ],
	  "classes": [
	    {"name": "vr-a", "count": 3, "fps": 30, "tier": "gw-a",
	     "frame_bytes": 1122000, "compute_sec": 0.03,
	     "capture_j": 5e-3, "tx_fixed_j": 1e-4, "tx_per_byte_j": 4e-8},
	    {"name": "fa-b", "count": 40, "fps": 1, "arrival": "poisson",
	     "tier": "gw-b", "frame_bytes": 400, "offload_prob": 0.05,
	     "compute_sec": 0.02, "harvest_w": 2e-4, "store_j": 0.07},
	    {"name": "direct", "count": 5, "fps": 2, "frame_bytes": 10000}
	  ]
	}`, ""},
	// invalid inputs the decoder must reject gracefully
	{`{"duration_sec": -1}`, `fleet: scenario "": duration -1 must be positive and finite`},
	{`{"duration_sec": 2, "uplink": {"gbps": 1}, "gateways": [{"name": ""}], "classes": []}`, `fleet: scenario "": tier 0 has no name`},
	{`not json at all`, `fleet: decoding scenario: invalid character 'o' in literal null (expecting 'u')`},
	{`{"classes": [{"count": 1e999}]}`, `fleet: decoding scenario: json: cannot unmarshal number 1e999 into Go struct field Class.classes.count of type int`},
	// camera populations past the int32 ids events carry: two counts
	// whose sum overflows int, and one count too large to allocate
	{`{"duration_sec": 1, "uplink": {"gbps": 1},
	  "classes": [{"name": "a", "count": 6917529027641081856, "fps": 1},
	              {"name": "b", "count": 6917529027641081856, "fps": 1}]}`, `fleet: scenario "": more than 2147483647 cameras`},
	{`{"duration_sec": 1, "uplink": {"gbps": 1},
	  "classes": [{"name": "a", "count": 1099511627776, "fps": 1}]}`, `fleet: scenario "": more than 2147483647 cameras`},
	// tier trees the topology resolver must reject: no root, a parent
	// cycle, a duplicate name, mixing tiers with gateways, negative delay
	{`{"duration_sec": 1, "tiers": [{"name": "a", "parent": "b", "uplink": {"gbps": 1}},
	  {"name": "b", "parent": "a", "uplink": {"gbps": 1}}],
	  "classes": [{"name": "c", "count": 1, "fps": 1}]}`, `fleet: scenario "": no root tier (every tier names a parent)`},
	{`{"duration_sec": 1, "tiers": [{"name": "a", "uplink": {"gbps": 1}},
	  {"name": "a", "uplink": {"gbps": 1}}],
	  "classes": [{"name": "c", "count": 1, "fps": 1}]}`, `fleet: scenario "": duplicate tier "a"`},
	{`{"duration_sec": 1, "uplink": {"gbps": 1},
	  "tiers": [{"name": "a", "uplink": {"gbps": 1}}],
	  "gateways": [{"name": "g", "uplink": {"gbps": 1}}],
	  "classes": [{"name": "c", "count": 1, "fps": 1}]}`, `fleet: scenario "": tiers and gateways are mutually exclusive`},
	{`{"duration_sec": 1, "tiers": [{"name": "a", "uplink": {"gbps": 1}, "propagation_sec": -0.1}],
	  "classes": [{"name": "c", "count": 1, "fps": 1}]}`, `fleet: tier "a": propagation -0.1 sec must be finite and non-negative`},
	// energy-aware placement: per-link forwarding energy, the
	// energy-latency policy and the global budget controller
	{`{
	  "name": "energy", "seed": 9, "duration_sec": 4,
	  "tiers": [
	    {"name": "gw", "parent": "core", "uplink": {"gbps": 4}, "propagation_sec": 0.0002, "tx_per_byte_j": 2e-8},
	    {"name": "core", "uplink": {"gbps": 8}, "propagation_sec": 0.002, "tx_per_byte_j": 1e-8}
	  ],
	  "global": {"epoch_sec": 1, "budget_w": 25, "high_sec": 0.5, "move_fraction": 0.5},
	  "classes": [
	    {"name": "vr", "count": 2, "fps": 10, "tier": "gw",
	     "capture_j": 5e-3, "tx_fixed_j": 1e-4, "tx_per_byte_j": 4e-8,
	     "placements": [
	       {"name": "raw", "frame_bytes": 12400000, "compute_sec": 0.0001},
	       {"name": "full", "frame_bytes": 1122000, "compute_sec": 0.0316, "compute_j": 0.316}
	     ],
	     "policy": {"kind": "energy-latency", "interval_sec": 0.5,
	                "high_sec": 0.5, "energy_weight": 1}}
	  ]
	}`, ""},
	// energy configs the validator must reject: a budget-less global
	// section, a global with nothing to reassign, negative forwarding
	// energy, a negative energy weight, and a misspelled field (strict
	// decoding rejects unknown keys)
	{`{"duration_sec": 1, "uplink": {"gbps": 1}, "global": {"epoch_sec": 1},
	  "classes": [{"name": "c", "count": 1, "fps": 1,
	    "placements": [{"frame_bytes": 10}]}]}`, `fleet: scenario "": global budget 0 W must be positive and finite`},
	{`{"duration_sec": 1, "uplink": {"gbps": 1}, "global": {"budget_w": 5},
	  "classes": [{"name": "c", "count": 1, "fps": 1}]}`, `fleet: scenario "": global controller with no placements table to reassign`},
	{`{"duration_sec": 1, "tiers": [{"name": "a", "uplink": {"gbps": 1}, "tx_per_byte_j": -1}],
	  "classes": [{"name": "c", "count": 1, "fps": 1}]}`, `fleet: tier "a": forwarding energy -1 J/byte must be finite and non-negative`},
	{`{"duration_sec": 1, "uplink": {"gbps": 1},
	  "classes": [{"name": "c", "count": 1, "fps": 1,
	    "placements": [{"frame_bytes": 10}],
	    "policy": {"kind": "energy-latency", "high_sec": 1, "energy_weight": -2}}]}`, `fleet: class "c": energy weight -2 must be finite and non-negative`},
	{`{"duration_sec": 1, "uplink": {"gbps": 1}, "budget_w": 5,
	  "classes": [{"name": "c", "count": 1, "fps": 1}]}`, `fleet: decoding scenario: json: unknown field "budget_w"`},
	// bidirectional tiers with a federated-learning job: downlinks on the
	// broadcast span, payloads sized from the model's layer vector
	{`{
	  "name": "fl", "seed": 3, "duration_sec": 4,
	  "tiers": [
	    {"name": "gw", "parent": "core", "uplink": {"gbps": 2}, "propagation_sec": 0.0002,
	     "downlink": {"gbps": 1, "contention": "fifo", "propagation_sec": 0.0002}},
	    {"name": "core", "uplink": {"gbps": 8}, "propagation_sec": 0.01,
	     "downlink": {"gbps": 4}}
	  ],
	  "classes": [
	    {"name": "fa", "count": 12, "fps": 2, "arrival": "poisson", "tier": "gw",
	     "frame_bytes": 200000, "offload_prob": 0.25, "compute_sec": 0.01}
	  ],
	  "federated": {"rounds": 3, "classes": ["fa"], "compute_sec": 0.5, "jitter_sec": 0.2,
	    "model": {"layers": [400, 8, 1], "bytes_per_weight": 4, "compress": 0.5}}
	}`, ""},
	// federated configs the validator must reject: a span tier without a
	// downlink, zero rounds, compress out of range, the gateways form
	// (no downlinks to broadcast on), an unknown participant class, and a
	// downlink with a bogus contention model
	{`{"duration_sec": 1, "tiers": [{"name": "a", "uplink": {"gbps": 1}}],
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10}],
	  "federated": {"rounds": 1, "update_bytes": 100}}`, `fleet: scenario "": federated learning needs a "tiers" topology with downlinks (the model broadcast rides them)`},
	{`{"duration_sec": 1, "tiers": [{"name": "a", "uplink": {"gbps": 1}, "downlink": {"gbps": 1}}],
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10}],
	  "federated": {"rounds": 0, "update_bytes": 100}}`, `fleet: scenario "": fl: rounds 0 outside [1, 4096]`},
	{`{"duration_sec": 1, "tiers": [{"name": "a", "uplink": {"gbps": 1}, "downlink": {"gbps": 1}}],
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10}],
	  "federated": {"rounds": 1, "model": {"layers": [4, 2], "compress": 7}}}`, `fleet: scenario "": fl: compress 7 outside (0, 1]`},
	{`{"duration_sec": 1, "uplink": {"gbps": 1},
	  "gateways": [{"name": "g", "uplink": {"gbps": 1}}],
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10, "gateway": "g"}],
	  "federated": {"rounds": 1, "update_bytes": 100}}`, `fleet: scenario "": federated learning needs a "tiers" topology with downlinks (the model broadcast rides them)`},
	{`{"duration_sec": 1, "tiers": [{"name": "a", "uplink": {"gbps": 1}, "downlink": {"gbps": 1}}],
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10}],
	  "federated": {"rounds": 1, "update_bytes": 100, "classes": ["ghost"]}}`, `fleet: scenario "": federated class "ghost" not in the scenario`},
	{`{"duration_sec": 1, "tiers": [{"name": "a", "uplink": {"gbps": 1},
	  "downlink": {"gbps": 1, "contention": "magic"}}],
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10}]}`, `fleet: tier "a" downlink: unknown contention model "magic"`},
	// finite tier compute: a valid two-tier pool with a per-class service
	// override, then the shapes the validator must reject — an unknown
	// discipline, a pool with no way to price service, a service entry for
	// a class that does not exist, a duplicated entry, negative cores, and
	// an offloading class crossing a pool that cannot price it
	{`{
	  "duration_sec": 2, "seed": 7,
	  "tiers": [
	    {"name": "gw", "parent": "core", "uplink": {"gbps": 2},
	     "compute": {"cores": 2, "service_rate_fps": 30,
	                 "service_sec": [{"class": "fa", "sec": 0.002}],
	                 "discipline": "fair-share"}},
	    {"name": "core", "uplink": {"gbps": 8},
	     "compute": {"cores": 4, "service_rate_fps": 200}}
	  ],
	  "classes": [
	    {"name": "fa", "count": 4, "fps": 2, "tier": "gw", "frame_bytes": 4096}
	  ]
	}`, ""},
	{`{"duration_sec": 1, "tiers": [{"name": "a", "uplink": {"gbps": 1},
	  "compute": {"cores": 1, "service_rate_fps": 10, "discipline": "magic"}}],
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10}]}`, `fleet: tier "a": unknown compute discipline "magic"`},
	{`{"duration_sec": 1, "tiers": [{"name": "a", "uplink": {"gbps": 1},
	  "compute": {"cores": 1}}],
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10}]}`, `fleet: tier "a": compute needs service_rate_fps or service_sec`},
	{`{"duration_sec": 1, "tiers": [{"name": "a", "uplink": {"gbps": 1},
	  "compute": {"cores": 1, "service_rate_fps": 10,
	              "service_sec": [{"class": "ghost", "sec": 0.1}]}}],
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10}]}`, `fleet: tier "a": compute service_sec names unknown class "ghost"`},
	{`{"duration_sec": 1, "tiers": [{"name": "a", "uplink": {"gbps": 1},
	  "compute": {"cores": 1, "service_rate_fps": 10,
	              "service_sec": [{"class": "c", "sec": 0.1}, {"class": "c", "sec": 0.2}]}}],
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10}]}`, `fleet: tier "a": duplicate compute service_sec for class "c"`},
	{`{"duration_sec": 1, "tiers": [{"name": "a", "uplink": {"gbps": 1},
	  "compute": {"cores": -1, "service_rate_fps": 10}}],
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10}]}`, `fleet: tier "a": compute cores -1 must be positive`},
	{`{"duration_sec": 1, "tiers": [{"name": "a", "uplink": {"gbps": 1},
	  "compute": {"cores": 1, "service_sec": [{"class": "c", "sec": 0.1}]}}],
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10},
	              {"name": "d", "count": 1, "fps": 1, "frame_bytes": 10, "tier": "a"}]}`, `fleet: tier "a": compute has no service time for class "d" (add a service_sec entry or a service_rate_fps default)`},
	// streaming telemetry: sketch-backed quantiles with a windowed time
	// series
	{`{
	  "name": "stream", "seed": 11, "duration_sec": 4,
	  "tiers": [
	    {"name": "gw", "parent": "core", "uplink": {"gbps": 2}, "propagation_sec": 0.0002},
	    {"name": "core", "uplink": {"gbps": 8}, "propagation_sec": 0.002}
	  ],
	  "classes": [
	    {"name": "fa", "count": 20, "fps": 5, "arrival": "poisson", "tier": "gw",
	     "frame_bytes": 100000, "offload_prob": 0.5, "compute_sec": 0.01, "queue_depth": 3}
	  ],
	  "telemetry": {"streaming": true, "window_sec": 0.5}
	}`, ""},
	// telemetry configs the validator must reject: a window without
	// streaming (the time series rides the sketch path) and a negative
	// window
	{`{"duration_sec": 1, "uplink": {"gbps": 1},
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10}],
	  "telemetry": {"streaming": false, "window_sec": 1}}`, `fleet: scenario "": telemetry window_sec needs streaming: true (the time series rides the sketch path)`},
	{`{"duration_sec": 1, "uplink": {"gbps": 1},
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10}],
	  "telemetry": {"streaming": true, "window_sec": -2}}`, `fleet: scenario "": telemetry window -2 sec must be finite and non-negative`},
	// fleet dynamics: a full fault schedule over a two-gateway tree —
	// diurnal rate profile, recurring churn, an outage with a fallback,
	// recovery, a degraded-then-restored link, a core-pool rescale
	{`{
	  "name": "dyn", "seed": 13, "duration_sec": 8,
	  "tiers": [
	    {"name": "gw-a", "parent": "core", "uplink": {"gbps": 0.2},
	     "compute": {"cores": 2, "service_rate_fps": 80}},
	    {"name": "gw-b", "parent": "core", "uplink": {"gbps": 0.2, "contention": "fifo"}},
	    {"name": "core", "uplink": {"gbps": 0.8}}
	  ],
	  "classes": [
	    {"name": "east", "count": 8, "fps": 5, "arrival": "poisson",
	     "frame_bytes": 100000, "tier": "gw-a", "queue_depth": 4},
	    {"name": "west", "count": 8, "fps": 5, "frame_bytes": 100000, "tier": "gw-b"}
	  ],
	  "dynamics": {"events": [
	    {"time_sec": 1, "kind": "fps_profile", "class": "east", "multiplier": 2},
	    {"time_sec": 1.5, "kind": "camera_join", "class": "east", "count": 2, "every_sec": 2},
	    {"time_sec": 2, "kind": "camera_leave", "class": "west"},
	    {"time_sec": 2.5, "kind": "compute_scale", "tier": "gw-a", "cores": 6},
	    {"time_sec": 3, "kind": "tier_outage", "tier": "gw-a", "fallback": "gw-b"},
	    {"time_sec": 4.5, "kind": "tier_recover", "tier": "gw-a"},
	    {"time_sec": 5, "kind": "link_degrade", "tier": "gw-b", "factor": 0.5},
	    {"time_sec": 6.5, "kind": "link_restore", "tier": "gw-b"}
	  ]}
	}`, ""},
	// dynamics schedules the validator must reject: an unknown event kind,
	// a negative time, an out-of-order pair, a ghost tier, a factor out of
	// range (on "wan", the flat form's root), an outage that strands its
	// attached class without a fallback, and a misplaced knob on a churn
	// event
	{`{"duration_sec": 1, "uplink": {"gbps": 1},
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10}],
	  "dynamics": {"events": [{"time_sec": 0.5, "kind": "meteor_strike"}]}}`, `fleet: scenario "": dynamics event 0 (meteor_strike): unknown event kind`},
	{`{"duration_sec": 1, "uplink": {"gbps": 1},
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10}],
	  "dynamics": {"events": [{"time_sec": -1, "kind": "camera_join", "class": "c"}]}}`, `fleet: scenario "": dynamics event 0 (camera_join): time -1 sec must be finite and non-negative`},
	{`{"duration_sec": 1, "uplink": {"gbps": 1},
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10}],
	  "dynamics": {"events": [
	    {"time_sec": 0.8, "kind": "camera_join", "class": "c"},
	    {"time_sec": 0.2, "kind": "camera_leave", "class": "c"}]}}`, `fleet: scenario "": dynamics event 1 (camera_leave): time 0.2 sec before the previous event's 0.8 (the schedule must be time-ordered)`},
	{`{"duration_sec": 1, "uplink": {"gbps": 1},
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10}],
	  "dynamics": {"events": [{"time_sec": 0.5, "kind": "link_degrade", "tier": "ghost", "factor": 0.5}]}}`, `fleet: scenario "": dynamics event 0 (link_degrade): unknown tier "ghost"`},
	{`{"duration_sec": 1, "uplink": {"gbps": 1},
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10}],
	  "dynamics": {"events": [{"time_sec": 0.5, "kind": "link_degrade", "tier": "wan", "factor": -2}]}}`, `fleet: scenario "": dynamics event 0 (link_degrade): factor -2 out of range (a capacity scale must be finite and non-negative; 0 is an outage)`},
	{`{"duration_sec": 1,
	  "tiers": [{"name": "gw", "parent": "core", "uplink": {"gbps": 1}},
	            {"name": "core", "uplink": {"gbps": 1}}],
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10, "tier": "gw"}],
	  "dynamics": {"events": [{"time_sec": 0.5, "kind": "tier_outage", "tier": "gw"}]}}`, `fleet: scenario "": dynamics event 0 (tier_outage): tier "gw" has attached classes and needs a fallback to re-home them to`},
	{`{"duration_sec": 1, "uplink": {"gbps": 1},
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10}],
	  "dynamics": {"events": [{"time_sec": 0.5, "kind": "camera_join", "class": "c", "factor": 0.5}]}}`, `fleet: scenario "": dynamics event 0 (camera_join): factor belongs to link_degrade only`},
	// a camera_join count that takes the camera population past the int32
	// ids events carry
	{`{"duration_sec": 1, "uplink": {"gbps": 1},
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10}],
	  "dynamics": {"events": [{"time_sec": 0.5, "kind": "camera_join", "class": "c", "count": 1099511627776}]}}`, `fleet: scenario "": dynamics event 0 (camera_join): count 1099511627776 makes more than 2147483647 cameras`},
	// two classes sharing a name, which dynamics, compute and federated
	// entries could then not tell apart
	{`{"duration_sec": 1, "uplink": {"gbps": 1},
	  "classes": [{"name": "a", "count": 2, "fps": 10}, {"name": "a", "count": 3, "fps": 10}]}`, `fleet: scenario "": duplicate class "a"`},
	// a class on a tier kind, which would be ignored
	{`{"duration_sec": 1,
	  "tiers": [{"name": "gw", "parent": "core", "uplink": {"gbps": 1}},
	            {"name": "core", "uplink": {"gbps": 1}}],
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10}],
	  "dynamics": {"events": [{"time_sec": 0.5, "kind": "tier_outage", "tier": "gw", "class": "zzz-not-a-class"}]}}`, `fleet: scenario "": dynamics event 0 (tier_outage): class belongs to camera_join, camera_leave and fps_profile only`},
	// capture rates whose period vanishes against the clock, which would
	// never let a run end: a periodic class stepped to ×1e300, and a
	// Poisson and a periodic class declared at 1e300 fps
	{`{"duration_sec": 1, "uplink": {"gbps": 1},
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10}],
	  "dynamics": {"events": [{"time_sec": 0.5, "kind": "fps_profile", "class": "c", "multiplier": 1e300}]}}`,
		`fleet: class "c": 1 cameras at up to 1e+300 fps over 1 sec make more than 2^40 captures`},
	{`{"duration_sec": 1, "uplink": {"gbps": 1},
	  "classes": [{"name": "c", "count": 1, "fps": 1e300, "arrival": "poisson", "frame_bytes": 10}]}`, `fleet: class "c": 1 cameras at up to 1e+300 fps over 1 sec make more than 2^40 captures`},
	{`{"duration_sec": 1, "uplink": {"gbps": 1},
	  "classes": [{"name": "c", "count": 1, "fps": 1e300, "frame_bytes": 10}]}`, `fleet: class "c": 1 cameras at up to 1e+300 fps over 1 sec make more than 2^40 captures`},
	// a class attached at a mistyped tier, under a root with a compute
	// pool: a delay floor priced along the root's path would hide it
	{`{"duration_sec": 1,
	  "tiers": [{"name": "gw", "parent": "core", "uplink": {"gbps": 1}},
	            {"name": "core", "uplink": {"gbps": 1}, "compute": {"service_rate_fps": 100}}],
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10, "tier": "gw-typo"}]}`, `fleet: class "c": unknown tier "gw-typo"`},
	// a repeated class name whose second class sits under a pool that
	// prices the name only through its service_sec entry: the pool finds
	// the entry by name, so the duplicate is what fails
	{`{"duration_sec": 1,
	  "tiers": [{"name": "gw", "parent": "core", "uplink": {"gbps": 1},
	             "compute": {"service_sec": [{"class": "c", "sec": 0.01}]}},
	            {"name": "core", "uplink": {"gbps": 1}}],
	  "classes": [{"name": "c", "count": 1, "fps": 1, "frame_bytes": 10},
	              {"name": "c", "count": 1, "fps": 1, "frame_bytes": 10, "tier": "gw"}]}`, `fleet: scenario "": duplicate class "c"`},
}

// TestValidateBoundsCaptures pins the capture bound at its edge: a class
// whose cameras at their fastest rate make exactly 2^40 captures over the
// run validates, and one camera more, a joiner or a step above ×1 makes
// it fail, while a step below ×1 does not lower the bound's rate.
func TestValidateBoundsCaptures(t *testing.T) {
	base := func() Scenario {
		return Scenario{Duration: 4, Uplink: UplinkConfig{Gbps: 1},
			Classes: []Class{{Name: "c", Count: 2, FPS: 1 << 37, FrameBytes: 10}}}
	}
	sc := base()
	sc.Dynamics = &DynamicsConfig{Events: []FleetEvent{{Time: 1, Kind: DynFPSProfile, Class: "c", Multiplier: 0.5}}}
	if err := sc.Validate(); err != nil {
		t.Errorf("2^40 captures: %v", err)
	}
	const want = `class "c": 3 cameras at up to 1.37438953472e+11 fps over 4 sec make more than 2^40 captures`
	more := base()
	more.Classes[0].Count = 3
	joined := base()
	joined.Dynamics = &DynamicsConfig{Events: []FleetEvent{{Time: 1, Kind: DynCameraJoin, Class: "c"}}}
	stepped := base()
	stepped.Dynamics = &DynamicsConfig{Events: []FleetEvent{{Time: 1, Kind: DynFPSProfile, Class: "c", Multiplier: 1.5}}}
	for name, sc := range map[string]Scenario{"count": more, "join": joined} {
		if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want substring %q", name, err, want)
		}
	}
	if err := stepped.Validate(); err == nil || !strings.Contains(err.Error(), "2 cameras at up to 2.06158430208e+11 fps") {
		t.Errorf("step: err = %v", err)
	}
}

// TestFuzzSeedVerdicts pins every seed's verdict: the valid seeds parse,
// and each invalid one fails with its whole message, for the reason its
// comment gives, not for some earlier fault that hides the check it was
// written for. A whole message also pins which check wins when a
// reordering of validation's lookups could let another fire first.
func TestFuzzSeedVerdicts(t *testing.T) {
	for i, s := range fuzzSeeds {
		_, err := ParseScenario([]byte(s.json))
		switch {
		case s.wantErr == "" && err != nil:
			t.Errorf("seed %d: rejected a valid seed: %v", i, err)
		case s.wantErr != "" && err == nil:
			t.Errorf("seed %d: accepted, want %q", i, s.wantErr)
		case s.wantErr != "" && err.Error() != s.wantErr:
			t.Errorf("seed %d: err = %q, want %q", i, err, s.wantErr)
		}
	}
}

// TestValidateAgreesWithRun holds validation, construction and the delay
// floors to one verdict. Run and RowDelaySeconds fail only where their
// validation does, so every seed that decodes must get the same answer
// from Validate, from Run and, when it has a class, from RowDelaySeconds
// for its first class: all nil, or the same error.
func TestValidateAgreesWithRun(t *testing.T) {
	for i, s := range fuzzSeeds {
		var sc Scenario
		dec := json.NewDecoder(strings.NewReader(s.json))
		dec.DisallowUnknownFields()
		if dec.Decode(&sc) != nil {
			continue
		}
		verr := sc.Validate()
		_, rerr := Run(sc)
		if fmt.Sprint(verr) != fmt.Sprint(rerr) {
			t.Errorf("seed %d: Validate says %v, Run says %v", i, verr, rerr)
		}
		if len(sc.Classes) == 0 {
			continue
		}
		if _, derr := sc.RowDelaySeconds(sc.Classes[0].Name); fmt.Sprint(verr) != fmt.Sprint(derr) {
			t.Errorf("seed %d: Validate says %v, RowDelaySeconds says %v", i, verr, derr)
		}
	}
}

// FuzzScenarioDecode feeds arbitrary bytes to the scenario decoder:
// whatever the input, ParseScenario must either return an error or a
// scenario in the one network form — a tier tree, no legacy field left —
// that validates, normalizes idempotently, and survives a marshal/re-parse
// round trip — and must never panic.
func FuzzScenarioDecode(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s.json))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(data)
		if err != nil {
			return
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("parsed scenario fails re-validation: %v", err)
		}
		if len(sc.Tiers) == 0 || sc.Gateways != nil || sc.Uplink != (UplinkConfig{}) {
			t.Fatalf("parsed scenario left the tier form: %d tiers, gateways %+v, uplink %+v",
				len(sc.Tiers), sc.Gateways, sc.Uplink)
		}
		for _, c := range sc.Classes {
			if c.Gateway != "" {
				t.Fatalf("class %q kept gateway %q after Normalize", c.Name, c.Gateway)
			}
		}
		if sc.Cameras() <= 0 {
			t.Fatalf("valid scenario with %d cameras", sc.Cameras())
		}
		// Normalize must be idempotent. Deep-copy first — a plain struct
		// copy would alias the backing storage and hide any second-pass
		// mutation. The reflection copy (deepcopy_test.go) preserves
		// nil-vs-empty exactly and covers every section by construction,
		// so one DeepEqual is the whole check. JSON cannot produce NaN,
		// so DeepEqual's NaN != NaN quirk cannot misfire here.
		norm := deepCopyScenario(sc)
		norm.Normalize()
		if !reflect.DeepEqual(norm, sc) {
			t.Fatalf("Normalize not idempotent:\n%+v\nvs\n%+v", norm, sc)
		}
		// A parsed scenario must survive a JSON round trip.
		out, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("valid scenario does not re-marshal: %v", err)
		}
		if _, err := ParseScenario(out); err != nil {
			t.Fatalf("re-marshaled scenario does not re-parse: %v\njson: %s", err, out)
		}
	})
}

// shrinkForRun clamps a decoded scenario so one fuzz input runs in
// milliseconds and stays valid. Counts and capture rates bound the
// frames; duration bounds the captures; floors on recurring periods
// (schedule re-arms, control ticks, global epochs, telemetry windows)
// bound the periodic events. The windowed series closes a window for
// every period up to the last event, so delays, schedule times, payload
// sizes, link and pool rates and degrade factors are bounded too, which
// bounds how long the run takes to drain.
func shrinkForRun(sc *Scenario) {
	const period, delay, maxBytes = 0.05, 1.0, 100_000
	floor := func(x *float64) {
		if *x > 0 {
			*x = max(*x, period)
		}
	}
	sc.Duration = min(sc.Duration, 2)
	for i := range sc.Classes {
		c := &sc.Classes[i]
		c.Count = min(c.Count, 16)
		c.FPS = min(c.FPS, 30)
		c.FrameBytes = min(c.FrameBytes, maxBytes)
		c.ComputeSeconds = min(c.ComputeSeconds, delay)
		for j := range c.Placements {
			p := &c.Placements[j]
			p.FrameBytes = min(p.FrameBytes, maxBytes)
			p.ComputeSeconds = min(p.ComputeSeconds, delay)
		}
		floor(&c.Policy.IntervalSec)
	}
	for i := range sc.Tiers {
		t := &sc.Tiers[i]
		t.Uplink.Gbps = max(t.Uplink.Gbps, 0.01)
		t.PropagationSec = min(t.PropagationSec, delay)
		if d := t.Downlink; d != nil {
			d.Gbps = max(d.Gbps, 0.01)
			d.PropagationSec = min(d.PropagationSec, delay)
		}
		if cc := t.Compute; cc != nil {
			if cc.ServiceRateFPS > 0 {
				cc.ServiceRateFPS = max(cc.ServiceRateFPS, 100)
			}
			for j := range cc.ServiceSec {
				cc.ServiceSec[j].Sec = min(cc.ServiceSec[j].Sec, 0.01)
			}
		}
	}
	if g := sc.Global; g != nil {
		floor(&g.EpochSec)
	}
	if f := sc.Federated; f != nil {
		f.Rounds = min(f.Rounds, 3)
		f.ComputeSec = min(f.ComputeSec, delay)
		f.JitterSec = min(f.JitterSec, delay)
		f.UpdateBytes = min(f.ResolvedUpdateBytes(), maxBytes)
		f.ModelBytes = min(f.ResolvedModelBytes(), maxBytes)
		f.Model = nil
	}
	if tc := sc.Telemetry; tc != nil {
		floor(&tc.WindowSec)
	}
	if d := sc.Dynamics; d != nil {
		for i := range d.Events {
			ev := &d.Events[i]
			ev.Time = min(ev.Time, sc.Duration) // keeps the schedule in time order
			ev.Count = min(ev.Count, 4)
			floor(&ev.EverySec)
			ev.Multiplier = min(ev.Multiplier, 4)
			if ev.Factor > 0 {
				ev.Factor = max(ev.Factor, 0.01)
			}
		}
	}
}

// FuzzScenarioRun runs every scenario the decoder accepts, shrunk by
// shrinkForRun: whatever the input, Run must finish without a panic or an
// error, every captured frame must land in exactly one accounting bucket,
// per class and in total, and a second run must reproduce the same
// Table().
func FuzzScenarioRun(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s.json))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(data)
		if err != nil {
			return
		}
		shrinkForRun(&sc)
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		assertConserved(t, "run", res)
		again, err := Run(sc)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if res.Table() != again.Table() {
			t.Fatalf("replay moved the table:\n%s\nvs\n%s", res.Table(), again.Table())
		}
	})
}
