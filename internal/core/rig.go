package core

import (
	"repro/internal/bus"
	"repro/internal/device"
	"repro/internal/dram"
	"repro/internal/nvdimm"
	"repro/internal/sim"
	"repro/internal/workload"
)

// memAggregation is the co-runner burst size in cachelines: 64-cacheline
// bursts keep long co-runner simulations cheap while preserving channel
// occupancy.
const memAggregation = 64

// CoRunner is a SPEC-style memory co-runner on a rig's channel.
type CoRunner struct {
	Profile workload.MemProfile
	Seed    uint64  // seeds the generator's RNG
	Scale   float64 // multiplies the profile's access rate
}

// Rig is one NVDIMM alone on a fresh engine and memory channel, with an
// optional DRAM DIMM and co-runner sharing that channel — the setup of the
// motivation study (Fig. 4), the quiet training pass behind PP = f(WC)
// (Eq. 1–2, Fig. 7) and the architecture studies (Figs. 14–16).
type Rig struct {
	Eng    *sim.Engine
	NVDIMM *nvdimm.NVDIMM
	DIMM   *dram.DIMM       // nil without a co-runner
	MemGen *workload.MemGen // nil without a co-runner; already started
}

// NewRig builds the rig. With co non-nil it adds the DIMM and starts its
// generator before returning.
func NewRig(cfg nvdimm.Config, co *CoRunner) Rig {
	eng := sim.NewEngine()
	ch := bus.NewChannel(eng, 0)
	r := Rig{Eng: eng, NVDIMM: nvdimm.New(eng, ch, cfg)}
	if co != nil {
		r.DIMM = dram.New(eng, ch)
		r.MemGen = workload.NewMemGen(eng, sim.NewRNG(co.Seed), r.DIMM, co.Profile)
		r.MemGen.Scale = co.Scale
		r.MemGen.Aggregation = memAggregation
		r.MemGen.Start()
	}
	return r
}

// QuietNVDIMM is the perfmodel.DeviceFactory of every training pass: a
// quiet scaled NVDIMM prefilled to fill.
func QuietNVDIMM(fill float64) (*sim.Engine, device.Device) {
	r := NewRig(ScaledNVDIMMConfig("train"), nil)
	r.NVDIMM.Prefill(fill)
	return r.Eng, r.NVDIMM
}
