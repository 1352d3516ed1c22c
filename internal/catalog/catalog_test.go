package catalog

import (
	"testing"

	"partopt/internal/part"
	"partopt/internal/types"
)

func TestCreateTableBasics(t *testing.T) {
	c := New()
	tab, err := c.CreateTable("orders",
		[]Column{{Name: "id", Kind: types.KindInt}, {Name: "amount", Kind: types.KindFloat}, {Name: "date", Kind: types.KindDate}},
		Hashed(0),
	)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if tab.IsPartitioned() {
		t.Errorf("table should not be partitioned")
	}
	if ord, ok := tab.ColOrd("amount"); !ok || ord != 1 {
		t.Errorf("ColOrd(amount) = %d, %v", ord, ok)
	}
	if _, ok := tab.ColOrd("ghost"); ok {
		t.Errorf("ColOrd found phantom column")
	}
	if tab.NumCols() != 3 {
		t.Errorf("NumCols = %d", tab.NumCols())
	}
	got, ok := c.Table("orders")
	if !ok || got != tab {
		t.Errorf("Table lookup failed")
	}
	if c.MustTable("orders") != tab {
		t.Errorf("MustTable failed")
	}
}

func TestCreateTablePartitioned(t *testing.T) {
	c := New()
	tab, err := c.CreateTable("orders",
		[]Column{{Name: "id", Kind: types.KindInt}, {Name: "date", Kind: types.KindDate}},
		Hashed(0),
		part.RangeLevel(1, part.MonthlyBounds(2012, 1, 24, 1)...),
	)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if !tab.IsPartitioned() || tab.Part.NumLeaves() != 24 {
		t.Errorf("partition descriptor wrong: %v", tab.Part)
	}
	// OIDs of partitions must not collide with the table or each other.
	seen := map[part.OID]bool{tab.OID: true}
	for _, oid := range tab.Part.Expansion() {
		if seen[oid] {
			t.Fatalf("OID collision at %d", oid)
		}
		seen[oid] = true
	}
}

func TestCreateTableValidation(t *testing.T) {
	c := New()
	cols := []Column{{Name: "a", Kind: types.KindInt}}
	cases := []struct {
		name string
		fn   func() error
	}{
		{"empty name", func() error { _, err := c.CreateTable("", cols, Hashed(0)); return err }},
		{"no columns", func() error { _, err := c.CreateTable("t1", nil, Hashed(0)); return err }},
		{"unnamed column", func() error {
			_, err := c.CreateTable("t2", []Column{{Kind: types.KindInt}}, Hashed(0))
			return err
		}},
		{"duplicate column", func() error {
			_, err := c.CreateTable("t3", []Column{{Name: "a", Kind: types.KindInt}, {Name: "a", Kind: types.KindInt}}, Hashed(0))
			return err
		}},
		{"hash without keys", func() error { _, err := c.CreateTable("t4", cols, DistPolicy{Kind: DistHashed}); return err }},
		{"hash key out of range", func() error { _, err := c.CreateTable("t5", cols, Hashed(3)); return err }},
		{"part key out of range", func() error {
			_, err := c.CreateTable("t6", cols, Hashed(0), part.RangeLevel(9, types.NewInt(0), types.NewInt(1)))
			return err
		}},
	}
	for _, tc := range cases {
		if tc.fn() == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	// Duplicate table name.
	if _, err := c.CreateTable("dup", cols, Hashed(0)); err != nil {
		t.Fatalf("first create: %v", err)
	}
	if _, err := c.CreateTable("dup", cols, Hashed(0)); err == nil {
		t.Errorf("duplicate table accepted")
	}
}

func TestTablesSorted(t *testing.T) {
	c := New()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := c.CreateTable(n, []Column{{Name: "a", Kind: types.KindInt}}, Hashed(0)); err != nil {
			t.Fatalf("create %s: %v", n, err)
		}
	}
	ts := c.Tables()
	if len(ts) != 3 || ts[0].Name != "alpha" || ts[2].Name != "zeta" {
		t.Errorf("Tables() order wrong: %v", ts)
	}
}

func TestMustTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustTable on unknown table did not panic")
		}
	}()
	New().MustTable("ghost")
}

func TestDistPolicyString(t *testing.T) {
	if Hashed(0, 1).String() != "hashed[0 1]" {
		t.Errorf("Hashed.String = %q", Hashed(0, 1).String())
	}
	if Replicated().String() != "replicated" {
		t.Errorf("Replicated.String = %q", Replicated().String())
	}
	if DistHashed.String() != "hashed" || DistReplicated.String() != "replicated" {
		t.Errorf("DistKind strings wrong")
	}
}
