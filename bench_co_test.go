package sqlxnf

import (
	"testing"

	"sqlxnf/internal/workload"
)

// BenchmarkCOCheckoutHit measures a warm composite-object checkout of a
// design working set. It is the cache-hit arm on purpose: unlike the paper
// benchmarks (bench_test.go), its engine keeps the CO cache on, and
// internal/engine's BenchmarkTakeMiss is the matching miss arm.
func BenchmarkCOCheckoutHit(b *testing.B) {
	db := Open()
	if _, err := workload.LoadDesign(db.Session(), workload.DesignConfig{
		Designs: 500, CompsPerDesign: 16, SubsPerComp: 4, Seed: 7}); err != nil {
		b.Fatal(err)
	}
	q := workload.WorkingSetQuery("model-3", 1)
	if _, err := db.QueryCO(q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.QueryCO(q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := db.Engine().COCacheStats(); st.Hits < int64(b.N) {
		b.Fatalf("not hitting: %+v", st)
	}
}
