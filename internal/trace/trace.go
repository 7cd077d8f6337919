// Package trace defines the request types exchanged between workloads,
// devices, and the storage manager, plus the workload-characteristic (WC)
// extraction used by the performance model (paper §4, Eq. 2).
package trace

import (
	"fmt"

	"repro/internal/sim"
)

// Op is an I/O operation kind.
type Op uint8

const (
	// OpRead is a read request.
	OpRead Op = iota
	// OpWrite is a write request.
	OpWrite
)

// String returns "read" or "write".
func (o Op) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// Class tags a request with its role in storage management. Migrated
// requests are the data-migration traffic of §5.2–5.3; persistent requests
// are ordinary writes that must respect persistence barriers.
type Class uint8

const (
	// ClassNormal is ordinary application I/O.
	ClassNormal Class = iota
	// ClassMigrated is data-migration traffic (treated as non-persistent;
	// bypasses buffer caches and barriers per §5.3).
	ClassMigrated
	// ClassPersistent is a write that must respect persistence ordering.
	ClassPersistent
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassNormal:
		return "normal"
	case ClassMigrated:
		return "migrated"
	case ClassPersistent:
		return "persistent"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// IORequest is one block-layer request as seen by a storage device.
type IORequest struct {
	ID     uint64
	Op     Op
	Offset int64 // byte offset within the device/VMDK
	Size   int64 // bytes
	Class  Class
	VMDK   int // owning virtual disk (-1 if none)

	Issue    sim.Time // when the request was issued
	Complete sim.Time // when the device completed it (0 until done)

	// Err is the completion status: nil on success, non-nil when the device
	// (or the fault-injection layer wrapping it) failed the request. A failed
	// request still has Issue/Complete stamped — it occupied the device for
	// that long — but its payload must be treated as not transferred.
	Err error
}

// Failed reports whether the request completed with an error.
func (r *IORequest) Failed() bool { return r.Err != nil }

// Latency returns the completion latency, or 0 if not yet complete.
func (r *IORequest) Latency() sim.Time {
	if r.Complete == 0 {
		return 0
	}
	return r.Complete - r.Issue
}

// MemRequest is one main-memory (DRAM) access generated by the compute
// side of a workload; it competes with NVDIMM traffic for the memory bus.
type MemRequest struct {
	Addr uint64
	At   sim.Time
}

// WC is the workload-characteristic vector of Eq. (2):
//
//	WC = ⟨wr_ratio, OIOs, IOS, wr_rand, rd_rand, free_space_ratio⟩
//
// All ratio fields are fractions in [0,1]; OIOs is the mean number of
// outstanding requests; IOSize is bytes.
type WC struct {
	WriteRatio     float64 // fraction of requests that are writes
	OIOs           float64 // mean outstanding I/Os
	IOSize         float64 // mean request size in bytes
	WriteRand      float64 // fraction of writes that are random
	ReadRand       float64 // fraction of reads that are random
	FreeSpaceRatio float64 // device free-space fraction (GC proxy)
}

// Features returns the vector as an ordered feature slice for the ML model.
func (w WC) Features() []float64 {
	return []float64{w.WriteRatio, w.OIOs, w.IOSize, w.WriteRand, w.ReadRand, w.FreeSpaceRatio}
}

// FeatureNames returns the names matching Features() order.
func FeatureNames() []string {
	return []string{"wr_ratio", "OIOs", "IOS", "wr_rand", "rd_rand", "free_space_ratio"}
}

// String renders the vector compactly.
func (w WC) String() string {
	return fmt.Sprintf("WC{wr=%.2f oio=%.1f ios=%.0fB wrnd=%.2f rrnd=%.2f free=%.2f}",
		w.WriteRatio, w.OIOs, w.IOSize, w.WriteRand, w.ReadRand, w.FreeSpaceRatio)
}
