package ftl

import (
	"testing"

	"repro/internal/flash"
	"repro/internal/sim"
)

// BenchmarkFTLWritePath measures the full mapped-write path including GC
// amortized over a steady overwrite stream.
func BenchmarkFTLWritePath(b *testing.B) {
	eng := sim.NewEngine()
	fcfg := flash.DefaultConfig()
	fcfg.NumChannels = 8
	fcfg.ChipsPerChannel = 2
	fcfg.PagesPerBlock = 32
	fl := flash.New(eng, fcfg)
	f := New(fl, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Write(int64(i%4096), nil)
		// Drain the engine each iteration so GC work is paid inline
		// instead of accumulating an unbounded pending-write backlog.
		eng.Run()
	}
}
