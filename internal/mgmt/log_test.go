package mgmt

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestDecisionLogDisabledByDefault(t *testing.T) {
	var l DecisionLog
	l.add(Decision{Kind: DecisionMigrate})
	if l.enabled || len(l.Entries()) != 0 {
		t.Fatal("disabled log recorded entries")
	}
}

func TestDecisionLogRing(t *testing.T) {
	var l DecisionLog
	l.SetCapacity(3)
	for i := 0; i < 5; i++ {
		l.add(Decision{At: sim.Time(i), Kind: DecisionMigrate, VMDK: i})
	}
	got := l.Entries()
	if len(got) != 3 {
		t.Fatalf("entries = %d, want 3", len(got))
	}
	// Oldest-first: entries 2, 3, 4 survive.
	for i, d := range got {
		if d.VMDK != i+2 {
			t.Fatalf("ring order wrong: %v", got)
		}
	}
	l.SetCapacity(0)
	if l.enabled {
		t.Fatal("SetCapacity(0) did not disable")
	}
}

func TestDecisionKindString(t *testing.T) {
	cases := map[DecisionKind]string{
		DecisionEpoch:    "epoch",
		DecisionMigrate:  "migrate",
		DecisionSkip:     "skip",
		DecisionComplete: "complete",
		DecisionPlace:    "place",
		DecisionSLO:      "slo",
		DecisionKind(99): "decision(99)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d = %q, want %q", k, k.String(), want)
		}
	}
}

func TestDecisionString(t *testing.T) {
	d := Decision{At: 1000, Kind: DecisionMigrate, VMDK: 3, Src: "a", Dst: "b", Detail: "why"}
	s := d.String()
	for _, want := range []string{"migrate", "vmdk3", "a→b", "why"} {
		if !strings.Contains(s, want) {
			t.Fatalf("decision render missing %q: %s", want, s)
		}
	}
	// Epoch-style entries omit the VMDK and location.
	e := Decision{Kind: DecisionEpoch, VMDK: -1}
	if strings.Contains(e.String(), "vmdk") {
		t.Fatal("epoch entry should not name a vmdk")
	}
}

func TestManagerLogsMigrations(t *testing.T) {
	n := newNode(t)
	v, _ := n.dss[2].CreateVMDK(1, 8<<20)
	mgr := NewManager(n.eng, quickCfg(), BASIL(), n.dss)
	mgr.Log().SetCapacity(64)
	p := workload.Profile{Name: "w", WriteRatio: 0.3, ReadRand: 0.8, WriteRand: 0.8,
		IOSize: 4096, OIO: 4, Footprint: 8 << 20}
	r := workload.NewRunner(n.eng, sim.NewRNG(1), p, v, 0)
	r.Start()
	mgr.Start()
	n.eng.RunFor(500 * sim.Millisecond)
	r.Stop()
	mgr.Stop()
	n.eng.Run()
	if mgr.Stats().MigrationsStarted == 0 {
		t.Skip("no migration at this scale")
	}
	var sawMigrate bool
	for _, d := range mgr.Log().Entries() {
		if d.Kind == DecisionMigrate {
			sawMigrate = true
			if d.Src == "" || d.Dst == "" {
				t.Fatal("migrate entry missing locations")
			}
		}
	}
	if !sawMigrate {
		t.Fatalf("log has no migrate entry:\n%s", mgr.Log())
	}
}

func TestManagerLogsPlacement(t *testing.T) {
	n := newNode(t)
	mgr := NewManager(n.eng, quickCfg(), BASIL(), n.dss)
	mgr.Log().SetCapacity(8)
	if _, err := mgr.PlaceVMDK(8<<20, trace.WC{OIOs: 2, IOSize: 4096}); err != nil {
		t.Fatal(err)
	}
	entries := mgr.Log().Entries()
	if len(entries) != 1 || entries[0].Kind != DecisionPlace {
		t.Fatalf("log = %v", entries)
	}
}

func TestDecisionLogDropCounting(t *testing.T) {
	var l DecisionLog
	l.SetCapacity(3)
	for i := 0; i < 3; i++ {
		l.add(Decision{VMDK: i})
	}
	if l.Len() != 3 || l.Cap() != 3 || l.Dropped() != 0 {
		t.Fatalf("len=%d cap=%d dropped=%d, want 3/3/0", l.Len(), l.Cap(), l.Dropped())
	}
	for i := 3; i < 8; i++ {
		l.add(Decision{VMDK: i})
	}
	if l.Len() != 3 {
		t.Errorf("len = %d, want 3 (ring stays full)", l.Len())
	}
	if l.Dropped() != 5 {
		t.Errorf("dropped = %d, want 5", l.Dropped())
	}
	// Re-sizing resets the drop counter.
	l.SetCapacity(2)
	if l.Dropped() != 0 || l.Len() != 0 {
		t.Errorf("after SetCapacity: dropped=%d len=%d, want 0/0", l.Dropped(), l.Len())
	}
}

func TestDecisionLogLenBeforeFull(t *testing.T) {
	var l DecisionLog
	l.SetCapacity(5)
	l.add(Decision{})
	l.add(Decision{})
	if l.Len() != 2 {
		t.Fatalf("len = %d, want 2", l.Len())
	}
	if l.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", l.Dropped())
	}
}

func TestManagerEnablesLogFromConfig(t *testing.T) {
	if DefaultConfig().DecisionLogCap != 1024 {
		t.Fatalf("DefaultConfig().DecisionLogCap = %d, want 1024", DefaultConfig().DecisionLogCap)
	}
	n := newNode(t)
	mgr := NewManager(n.eng, DefaultConfig(), BASIL(), n.dss)
	if !mgr.Log().enabled || mgr.Log().Cap() != 1024 {
		t.Fatalf("log enabled=%v cap=%d, want true/1024", mgr.Log().enabled, mgr.Log().Cap())
	}

	cfg := DefaultConfig()
	cfg.DecisionLogCap = 0
	mgr2 := NewManager(n.eng, cfg, BASIL(), n.dss)
	if mgr2.Log().enabled {
		t.Fatal("DecisionLogCap=0 should leave the log disabled")
	}
}
