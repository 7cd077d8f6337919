package cache

import "testing"

// BenchmarkLRFUMixed measures the lookup+insert cycle at a realistic
// 80% hit rate.
func BenchmarkLRFUMixed(b *testing.B) {
	c := NewLRFU(1024, DefaultLambda)
	for i := int64(0); i < 1024; i++ {
		c.Insert(i, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block := int64(i) % 1280 // ~80% resident
		if !c.Lookup(block) {
			c.Insert(block, false)
		}
	}
}
