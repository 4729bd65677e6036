package fleet

import (
	"fmt"
	"math"
)

// Tier is one node of an arbitrary-depth tier tree: an aggregation point
// whose Uplink carries traffic one hop toward the cloud. Parent names the
// tier this one's uplink feeds into; exactly one tier (the root) leaves it
// empty, and its uplink is the final hop out of the simulated network.
// PropagationSec is the one-way propagation delay of the uplink: a transfer
// finishing transmission on this tier's link arrives at the parent (or, from
// the root, at the cloud) that much later.
type Tier struct {
	Name           string       `json:"name"`
	Parent         string       `json:"parent,omitempty"`
	Uplink         UplinkConfig `json:"uplink"`
	PropagationSec float64      `json:"propagation_sec,omitempty"`
	// Downlink, when present, gives the tier a link in the opposite
	// direction — parent→tier, or cloud→root at the root — with its own
	// capacity, contention discipline and one-way propagation delay. It
	// carries root→leaf traffic (today the federated model broadcast)
	// and leaves the uplink untouched: a scenario without downlinks
	// simulates exactly as before.
	Downlink *DownlinkConfig `json:"downlink,omitempty"`
	// Compute, when present, gives the tier a finite pool of cores that
	// every offloaded frame must be serviced by before this tier forwards
	// it up its uplink — queueing plus service become part of end-to-end
	// latency (see ComputeConfig). A tier without the section processes
	// frames instantaneously, exactly as before the section existed.
	Compute *ComputeConfig `json:"compute,omitempty"`
	// TxPerByteJ is the network-side forwarding energy this link spends
	// per payload byte it serves (switch fabric, line drivers, backhaul
	// radio — see energy.ForwardPerByteJ for a default figure). It feeds
	// two places: observed ServedBytes × TxPerByteJ is the tier's
	// ForwardJ in the results, and the placement controllers charge a
	// class's offload bytes the summed TxPerByteJ of every hop between
	// its attach tier and the root when scoring placement energy.
	TxPerByteJ float64 `json:"tx_per_byte_j,omitempty"`
}

// DownlinkConfig sizes one tier's parent→tier link: capacity, contention
// discipline (the same fair-share/FIFO models as uplinks) and one-way
// propagation delay. The uplink's PropagationSec belongs to the Tier
// because the legacy forms predate downlinks; a downlink carries its own.
type DownlinkConfig struct {
	Gbps           float64 `json:"gbps"`
	Contention     string  `json:"contention"` // ContentionFairShare (default) or ContentionFIFO
	PropagationSec float64 `json:"propagation_sec,omitempty"`
}

// BytesPerSecond returns the downlink's payload capacity.
func (d DownlinkConfig) BytesPerSecond() float64 { return d.Gbps * 1e9 / 8 }

// uplinkConfig views the downlink as a plain link configuration, for the
// shared validation and link construction paths.
func (d DownlinkConfig) uplinkConfig() UplinkConfig {
	return UplinkConfig{Gbps: d.Gbps, Contention: d.Contention}
}

// tierNode is one resolved node of a scenario's tier tree, produced by
// Scenario.topology: the declared Tier plus its parent's index and its hop
// distance from the root.
type tierNode struct {
	Tier
	parent int // index into the node slice, -1 at the root
	depth  int // hops below the root link; the root is 0
}

// topology resolves the scenario's tier tree, which Normalize has made
// the one network form, into nodes in declaration order. Returns the
// nodes, the root's index, the index of each tier's name, and the first
// validation error.
func (sc *Scenario) topology() ([]tierNode, int, map[string]int, error) {
	nodes := make([]tierNode, len(sc.Tiers))
	index := make(map[string]int, len(sc.Tiers))
	root := -1
	for i, ti := range sc.Tiers {
		if ti.Name == "" {
			return nil, 0, nil, fmt.Errorf("fleet: scenario %q: tier %d has no name", sc.Name, i)
		}
		if _, dup := index[ti.Name]; dup {
			return nil, 0, nil, fmt.Errorf("fleet: scenario %q: duplicate tier %q", sc.Name, ti.Name)
		}
		index[ti.Name] = i
		nodes[i] = tierNode{Tier: ti, parent: -1}
		if ti.Parent == "" {
			if root >= 0 {
				return nil, 0, nil, fmt.Errorf("fleet: scenario %q: tiers %q and %q both claim the root (empty parent)",
					sc.Name, nodes[root].Name, ti.Name)
			}
			root = i
		}
	}
	if root < 0 {
		return nil, 0, nil, fmt.Errorf("fleet: scenario %q: no root tier (every tier names a parent)", sc.Name)
	}
	for i := range nodes {
		if i == root {
			continue
		}
		pi, ok := index[nodes[i].Parent]
		if !ok {
			return nil, 0, nil, fmt.Errorf("fleet: tier %q: unknown parent %q", nodes[i].Name, nodes[i].Parent)
		}
		if pi == i {
			return nil, 0, nil, fmt.Errorf("fleet: tier %q is its own parent", nodes[i].Name)
		}
		nodes[i].parent = pi
	}
	// Depth doubles as the cycle check: a chain longer than the node count
	// can only mean the parent pointers loop.
	for i := range nodes {
		depth, at := 0, i
		for nodes[at].parent >= 0 {
			at = nodes[at].parent
			if depth++; depth > len(nodes) {
				return nil, 0, nil, fmt.Errorf("fleet: tier %q: parent chain does not reach a root (cycle)", nodes[i].Name)
			}
		}
		nodes[i].depth = depth
	}
	return nodes, root, index, nil
}

// rootTierName names the root tier Normalize synthesizes for the flat and
// "gateways" scenario forms.
const rootTierName = "wan"

// validateTopologyNodes checks a resolved tree's links and delays plus
// every class's attach point, and returns each class's attach tier: the
// tier it names through index, else the root.
func (sc *Scenario) validateTopologyNodes(nodes []tierNode, root int, index map[string]int) ([]int, error) {
	for _, nd := range nodes {
		if err := validateUplink(nd.Uplink, nd.Name, ""); err != nil {
			return nil, err
		}
		if !(nd.PropagationSec >= 0) || math.IsInf(nd.PropagationSec, 0) {
			return nil, fmt.Errorf("fleet: tier %q: propagation %v sec must be finite and non-negative",
				nd.Name, nd.PropagationSec)
		}
		if !(nd.TxPerByteJ >= 0) || math.IsInf(nd.TxPerByteJ, 0) {
			return nil, fmt.Errorf("fleet: tier %q: forwarding energy %v J/byte must be finite and non-negative",
				nd.Name, nd.TxPerByteJ)
		}
		if d := nd.Downlink; d != nil {
			if err := validateUplink(d.uplinkConfig(), nd.Name, " downlink"); err != nil {
				return nil, err
			}
			if !(d.PropagationSec >= 0) || math.IsInf(d.PropagationSec, 0) {
				return nil, fmt.Errorf("fleet: tier %q: downlink propagation %v sec must be finite and non-negative",
					nd.Name, d.PropagationSec)
			}
		}
	}
	attach := make([]int, len(sc.Classes))
	for ci, c := range sc.Classes {
		ti, ok := index[c.Tier]
		if !ok && c.Tier != "" {
			return nil, fmt.Errorf("fleet: class %q: unknown tier %q", c.Name, c.Tier)
		}
		if !ok {
			ti = root
		}
		attach[ci] = ti
	}
	return attach, nil
}
