package storage

import (
	"testing"

	"partopt/internal/catalog"
	"partopt/internal/part"
	"partopt/internal/types"
)

// BenchmarkStoreInsert times Store.Insert, a one-row InsertBatch, on a
// 4-segment store: into a hashed table range-partitioned into 12 leaves
// (one segment, one leaf per row) and into a replicated table (every
// segment gets the row).
func BenchmarkStoreInsert(b *testing.B) {
	for _, c := range []struct {
		name string
		dist catalog.DistPolicy
		part []part.LevelSpec
	}{
		{"hashed-range", catalog.Hashed(0), []part.LevelSpec{part.RangeLevel(1, part.IntBounds(0, 1200, 12)...)}},
		{"replicated", catalog.Replicated(), nil},
	} {
		b.Run(c.name, func(b *testing.B) {
			st := NewStore(4)
			tab, err := catalog.New().CreateTable("t",
				[]catalog.Column{{Name: "id", Kind: types.KindInt}, {Name: "k", Kind: types.KindInt}, {Name: "s", Kind: types.KindString}},
				c.dist, c.part...)
			if err != nil {
				b.Fatalf("CreateTable: %v", err)
			}
			st.CreateTable(tab)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				row := types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 1200)), types.NewString("x")}
				if err := st.Insert(tab, row); err != nil {
					b.Fatalf("Insert: %v", err)
				}
			}
		})
	}
}
