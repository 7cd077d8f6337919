// Package cluster assembles server nodes for the multi-node experiments
// (§6.1: three server nodes, each with NVDIMM + SSD + HDD, storage and
// computing integrated Hadoop-style). Nodes share one simulation engine;
// cross-node migration traffic flows over modeled Ethernet links.
package cluster

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/device"
	"repro/internal/dram"
	"repro/internal/hdd"
	"repro/internal/mgmt"
	"repro/internal/nvdimm"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// NodeConfig describes one server node.
type NodeConfig struct {
	Name string
	// Channels is the number of memory channels (Table 4: 4), each with
	// one DRAM DIMM; the NVDIMM shares channel 0.
	Channels int
	NVDIMM   nvdimm.Config
	SSD      ssd.Config
	HDD      hdd.Config
	// MemProfile optionally attaches a SPEC-style memory co-runner.
	MemProfile *workload.MemProfile
	// MemScale multiplies the co-runner's access rate (default 1).
	MemScale float64
	// MemAggregation is the generator burst size (default 16).
	MemAggregation int
	// WrapDevice, when set, wraps each storage device before it is handed
	// to its datastore — the fault-injection hook. The wrapper sits between
	// the performance monitor and the real device, so injected failures are
	// observed exactly like organic ones.
	WrapDevice func(device.Device) device.Device
}

// Node is one assembled server.
type Node struct {
	Index int
	Name  string

	IC      *bus.Interconnect
	DIMMs   []*dram.DIMM
	NVDIMM  *nvdimm.NVDIMM
	SSD     *ssd.SSD
	HDD     *hdd.HDD
	MemGens []*workload.MemGen

	Stores []*mgmt.Datastore // NVDIMM, SSD, HDD order
}

// Link models the Ethernet connection between nodes: a shared serial
// medium with fixed latency and bandwidth (the paper's NE2000-based NIC
// model; bandwidth configurable since NE2000-class speeds would dominate
// everything).
type Link struct {
	eng       *sim.Engine
	Bandwidth int64 // bytes/sec
	Latency   sim.Time
	busyUntil sim.Time
	bytesSent int64
}

// Transfer implements mgmt.Network-style semantics on this link.
func (l *Link) Transfer(bytes int64, done func()) {
	hold := sim.Time(float64(bytes) / float64(l.Bandwidth) * 1e9)
	start := l.eng.Now()
	if l.busyUntil > start {
		start = l.busyUntil
	}
	l.busyUntil = start + hold
	l.bytesSent += bytes
	l.eng.At(start+hold+l.Latency, done)
}

// Cluster is a set of nodes plus the interconnecting network.
type Cluster struct {
	Eng   *sim.Engine
	Nodes []*Node
	links map[[2]int]*Link

	// LinkBandwidth/LinkLatency configure lazily created links.
	LinkBandwidth int64
	LinkLatency   sim.Time
}

var _ mgmt.Network = (*Cluster)(nil)

// DefaultLinkBandwidth is 1 GbE in bytes/sec.
const DefaultLinkBandwidth = int64(125) * 1000 * 1000

// New builds a cluster on a fresh engine.
func New() *Cluster {
	return &Cluster{
		Eng:           sim.NewEngine(),
		links:         make(map[[2]int]*Link),
		LinkBandwidth: DefaultLinkBandwidth,
		LinkLatency:   100 * sim.Microsecond,
	}
}

// AddNode assembles and registers a node after validating the config: a
// nil engine, duplicate name, or non-positive device capacity would
// otherwise surface much later as a confusing panic or a datastore that
// can never hold an extent.
func (c *Cluster) AddNode(cfg NodeConfig, rng *sim.RNG) (*Node, error) {
	if c.Eng == nil {
		return nil, fmt.Errorf("cluster: AddNode on a cluster without an engine (use cluster.New)")
	}
	if cfg.Channels < 0 {
		return nil, fmt.Errorf("cluster: node %q: negative channel count %d", cfg.Name, cfg.Channels)
	}
	if cfg.Channels == 0 {
		cfg.Channels = 4
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("node%d", len(c.Nodes))
	}
	for _, ex := range c.Nodes {
		if ex.Name == cfg.Name {
			return nil, fmt.Errorf("cluster: duplicate node name %q", cfg.Name)
		}
	}
	if cfg.NVDIMM.Capacity <= 0 {
		return nil, fmt.Errorf("cluster: node %q: non-positive NVDIMM capacity %d", cfg.Name, cfg.NVDIMM.Capacity)
	}
	if cfg.SSD.Capacity <= 0 {
		return nil, fmt.Errorf("cluster: node %q: non-positive SSD capacity %d", cfg.Name, cfg.SSD.Capacity)
	}
	if cfg.HDD.Capacity <= 0 {
		return nil, fmt.Errorf("cluster: node %q: non-positive HDD capacity %d", cfg.Name, cfg.HDD.Capacity)
	}
	if cfg.MemScale < 0 {
		return nil, fmt.Errorf("cluster: node %q: negative MemScale %g", cfg.Name, cfg.MemScale)
	}
	if cfg.MemProfile != nil && rng == nil {
		return nil, fmt.Errorf("cluster: node %q: memory co-runner requires an RNG", cfg.Name)
	}
	idx := len(c.Nodes)
	n := &Node{Index: idx, Name: cfg.Name}
	n.IC = bus.NewInterconnect(c.Eng, cfg.Channels)
	for ch := 0; ch < cfg.Channels; ch++ {
		n.DIMMs = append(n.DIMMs, dram.New(c.Eng, n.IC.Channel(ch)))
	}
	// The NVDIMM shares channel 0 with that channel's DRAM DIMM.
	n.NVDIMM = nvdimm.New(c.Eng, n.IC.Channel(0), cfg.NVDIMM)
	n.SSD = ssd.New(c.Eng, cfg.SSD)
	n.HDD = hdd.New(c.Eng, cfg.HDD)
	wrap := cfg.WrapDevice
	if wrap == nil {
		wrap = func(d device.Device) device.Device { return d }
	}
	n.Stores = []*mgmt.Datastore{
		mgmt.NewDatastore(wrap(n.NVDIMM), idx),
		mgmt.NewDatastore(wrap(n.SSD), idx),
		mgmt.NewDatastore(wrap(n.HDD), idx),
	}
	if cfg.MemProfile != nil {
		for ch := 0; ch < cfg.Channels; ch++ {
			g := workload.NewMemGen(c.Eng, rng.Split(), n.DIMMs[ch], *cfg.MemProfile)
			if cfg.MemScale > 0 {
				g.Scale = cfg.MemScale / float64(cfg.Channels)
			} else {
				g.Scale = 1.0 / float64(cfg.Channels)
			}
			if cfg.MemAggregation > 0 {
				g.Aggregation = cfg.MemAggregation
			}
			n.MemGens = append(n.MemGens, g)
		}
	}
	c.Nodes = append(c.Nodes, n)
	return n, nil
}

// StartMemTraffic starts every node's memory co-runner.
func (c *Cluster) StartMemTraffic() {
	for _, n := range c.Nodes {
		for _, g := range n.MemGens {
			g.Start()
		}
	}
}

// StopMemTraffic stops all co-runners.
func (c *Cluster) StopMemTraffic() {
	for _, n := range c.Nodes {
		for _, g := range n.MemGens {
			g.Stop()
		}
	}
}

// AllStores flattens every node's datastores (manager input).
func (c *Cluster) AllStores() []*mgmt.Datastore {
	var out []*mgmt.Datastore
	for _, n := range c.Nodes {
		out = append(out, n.Stores...)
	}
	return out
}

// link returns (creating if needed) the link between two nodes. Link
// parameters are validated at creation: a zero bandwidth would make
// Transfer divide by zero and schedule a +Inf hold time, silently
// corrupting the event clock, so misconfiguration fails loudly instead.
func (c *Cluster) link(a, b int) *Link {
	if a > b {
		a, b = b, a
	}
	key := [2]int{a, b}
	l, ok := c.links[key]
	if !ok {
		if c.LinkBandwidth <= 0 {
			panic(fmt.Sprintf("cluster: link %d-%d bandwidth must be positive, got %d", a, b, c.LinkBandwidth))
		}
		if c.LinkLatency < 0 {
			panic(fmt.Sprintf("cluster: link %d-%d latency must be non-negative, got %v", a, b, c.LinkLatency))
		}
		l = &Link{eng: c.Eng, Bandwidth: c.LinkBandwidth, Latency: c.LinkLatency}
		c.links[key] = l
	}
	return l
}

// Transfer implements mgmt.Network: cross-node migration data pays the
// link's bandwidth and latency. The modeled Ethernet itself never fails —
// link faults are layered on by faultinject.WrapNetwork — so done always
// receives nil here.
func (c *Cluster) Transfer(srcNode, dstNode int, bytes int64, done func(error)) {
	if srcNode == dstNode {
		done(nil)
		return
	}
	c.link(srcNode, dstNode).Transfer(bytes, func() { done(nil) })
}

// NetworkBytes returns total cross-node migration traffic.
func (c *Cluster) NetworkBytes() int64 {
	var sum int64
	for _, l := range c.links {
		sum += l.bytesSent
	}
	return sum
}
