package cluster

import (
	"testing"

	"repro/internal/hdd"
	"repro/internal/nvdimm"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

func smallNodeConfig(name string, withMem bool) NodeConfig {
	// Physical flash must back the advertised capacity, or sustained
	// writes drive the FTL to 100% utilization and GC thrash.
	nvCfg := nvdimm.DefaultConfig(name+"-nv", 256<<20, 4096)
	nvCfg.Flash.NumChannels = 4
	nvCfg.Flash.ChipsPerChannel = 2
	nvCfg.Flash.PagesPerBlock = 16
	nvCfg.CacheBlocks = 128
	sdCfg := ssd.DefaultConfig(name+"-ssd", 512<<20, 8192)
	sdCfg.Flash.NumChannels = 4
	sdCfg.Flash.ChipsPerChannel = 2
	sdCfg.Flash.PagesPerBlock = 16
	cfg := NodeConfig{
		Name:   name,
		NVDIMM: nvCfg,
		SSD:    sdCfg,
		HDD:    hdd.Config{Name: name + "-hdd", Capacity: 1 << 40, Seed: 1},
	}
	if withMem {
		mcf, _ := workload.SPECProfile("429.mcf")
		cfg.MemProfile = &mcf
	}
	return cfg
}

func TestAddNodeAssemblesDevices(t *testing.T) {
	c := New()
	rng := sim.NewRNG(1)
	n, err := c.AddNode(smallNodeConfig("n0", true), rng)
	if err != nil {
		t.Fatal(err)
	}
	if n.Index != 0 || n.Name != "n0" {
		t.Fatalf("node identity: %d %q", n.Index, n.Name)
	}
	if len(n.DIMMs) != 4 || n.IC.NumChannels() != 4 {
		t.Fatalf("channels = %d, dimms = %d", n.IC.NumChannels(), len(n.DIMMs))
	}
	if len(n.Stores) != 3 {
		t.Fatalf("stores = %d", len(n.Stores))
	}
	if len(n.MemGens) != 4 {
		t.Fatalf("memgens = %d", len(n.MemGens))
	}
	if n.Stores[0].Node != 0 {
		t.Fatal("datastore node index wrong")
	}
}

func TestDefaultNodeName(t *testing.T) {
	c := New()
	cfg := smallNodeConfig("", false)
	cfg.Name = ""
	n, _ := c.AddNode(cfg, sim.NewRNG(1))
	if n.Name != "node0" {
		t.Fatalf("default name = %q", n.Name)
	}
}

func TestAddNodeValidation(t *testing.T) {
	t.Run("nil engine", func(t *testing.T) {
		c := &Cluster{}
		if _, err := c.AddNode(smallNodeConfig("n0", false), sim.NewRNG(1)); err == nil {
			t.Fatal("nil engine accepted")
		}
	})
	t.Run("duplicate name", func(t *testing.T) {
		c := New()
		if _, err := c.AddNode(smallNodeConfig("n0", false), sim.NewRNG(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddNode(smallNodeConfig("n0", false), sim.NewRNG(2)); err == nil {
			t.Fatal("duplicate name accepted")
		}
	})
	t.Run("duplicate autogenerated name", func(t *testing.T) {
		c := New()
		// The second node's autogenerated name will be "node1" — taken.
		if _, err := c.AddNode(smallNodeConfig("node1", false), sim.NewRNG(1)); err != nil {
			t.Fatal(err)
		}
		cfg := smallNodeConfig("", false)
		cfg.Name = ""
		if _, err := c.AddNode(cfg, sim.NewRNG(2)); err == nil {
			t.Fatal("autogenerated name collided silently")
		}
	})
	t.Run("non-positive capacities", func(t *testing.T) {
		for _, zero := range []string{"nvdimm", "ssd", "hdd"} {
			c := New()
			cfg := smallNodeConfig("n0", false)
			switch zero {
			case "nvdimm":
				cfg.NVDIMM.Capacity = 0
			case "ssd":
				cfg.SSD.Capacity = -1
			case "hdd":
				cfg.HDD.Capacity = 0
			}
			if _, err := c.AddNode(cfg, sim.NewRNG(1)); err == nil {
				t.Fatalf("zero %s capacity accepted", zero)
			}
		}
	})
	t.Run("negative channels", func(t *testing.T) {
		c := New()
		cfg := smallNodeConfig("n0", false)
		cfg.Channels = -1
		if _, err := c.AddNode(cfg, sim.NewRNG(1)); err == nil {
			t.Fatal("negative channel count accepted")
		}
	})
	t.Run("negative mem scale", func(t *testing.T) {
		c := New()
		cfg := smallNodeConfig("n0", false)
		cfg.MemScale = -0.5
		if _, err := c.AddNode(cfg, sim.NewRNG(1)); err == nil {
			t.Fatal("negative MemScale accepted")
		}
	})
	t.Run("mem profile without rng", func(t *testing.T) {
		c := New()
		if _, err := c.AddNode(smallNodeConfig("n0", true), nil); err == nil {
			t.Fatal("nil RNG with co-runner accepted")
		}
	})
}

func TestZeroBandwidthLinkPanics(t *testing.T) {
	c := New()
	c.LinkBandwidth = 0
	c.AddNode(smallNodeConfig("n0", false), sim.NewRNG(1))
	c.AddNode(smallNodeConfig("n1", false), sim.NewRNG(2))
	defer func() {
		if recover() == nil {
			t.Fatal("zero-bandwidth link created silently (Transfer would divide by zero)")
		}
	}()
	c.Transfer(0, 1, 4096, func(error) {})
}

func TestMemTrafficStartsAndStops(t *testing.T) {
	c := New()
	n, _ := c.AddNode(smallNodeConfig("n0", true), sim.NewRNG(1))
	c.StartMemTraffic()
	c.Eng.RunFor(2 * sim.Millisecond)
	c.StopMemTraffic()
	var total uint64
	for _, d := range n.DIMMs {
		total += d.Intensity().Total()
	}
	if total == 0 {
		t.Fatal("no memory traffic generated")
	}
}

func TestAllStoresAcrossNodes(t *testing.T) {
	c := New()
	c.AddNode(smallNodeConfig("n0", false), sim.NewRNG(1))
	c.AddNode(smallNodeConfig("n1", false), sim.NewRNG(2))
	c.AddNode(smallNodeConfig("n2", false), sim.NewRNG(3))
	if got := len(c.AllStores()); got != 9 {
		t.Fatalf("stores = %d, want 9", got)
	}
}

func TestLinkTransferTiming(t *testing.T) {
	c := New()
	c.LinkBandwidth = 1000 * 1000 * 1000 // 1 GB/s for round numbers
	c.LinkLatency = 10 * sim.Microsecond
	c.AddNode(smallNodeConfig("n0", false), sim.NewRNG(1))
	c.AddNode(smallNodeConfig("n1", false), sim.NewRNG(2))
	var doneAt sim.Time = -1
	// 1 MB at 1 GB/s = 1 ms, plus 10us latency.
	c.Transfer(0, 1, 1000*1000, func(error) { doneAt = c.Eng.Now() })
	c.Eng.Run()
	want := sim.Millisecond + 10*sim.Microsecond
	if doneAt != want {
		t.Fatalf("transfer done at %v, want %v", doneAt, want)
	}
	if c.NetworkBytes() != 1000*1000 {
		t.Fatalf("network bytes = %d", c.NetworkBytes())
	}
}

func TestLinkSerializes(t *testing.T) {
	c := New()
	c.LinkBandwidth = 1000 * 1000 * 1000
	c.LinkLatency = 0
	c.AddNode(smallNodeConfig("n0", false), sim.NewRNG(1))
	c.AddNode(smallNodeConfig("n1", false), sim.NewRNG(2))
	var first, second sim.Time
	c.Transfer(0, 1, 1000*1000, func(error) { first = c.Eng.Now() })
	c.Transfer(1, 0, 1000*1000, func(error) { second = c.Eng.Now() }) // same link both directions
	c.Eng.Run()
	if second != 2*first {
		t.Fatalf("link did not serialize: %v then %v", first, second)
	}
}

func TestSameNodeTransferFree(t *testing.T) {
	c := New()
	c.AddNode(smallNodeConfig("n0", false), sim.NewRNG(1))
	called := false
	c.Transfer(0, 0, 1<<30, func(error) { called = true })
	if !called {
		t.Fatal("same-node transfer should complete synchronously")
	}
	if c.NetworkBytes() != 0 {
		t.Fatal("same-node transfer counted as network traffic")
	}
}
