package main

import (
	"math"
	"testing"

	"recsys/internal/model"
	"recsys/internal/stats"
)

// TestBuildStoresMatchesServingSpec: a shard accepts the exact -model
// value a serving node takes (name, scale, weight and int8 suffix) and
// serves rows bit-identical to the model the shared spec builder
// derives for the node's first -model from the same seed.
func TestBuildStoresMatchesServingSpec(t *testing.T) {
	const v, seed = "m=rmc2-int8:200@2", 7
	stores, desc, err := buildStores(v, 100, seed)
	if err != nil {
		t.Fatalf("buildStores(%q): %v", v, err)
	}
	spec, err := model.ParseSpec(v, 100)
	if err != nil {
		t.Fatal(err)
	}
	m, err := spec.Build(stats.NewRNG(seed).Split())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Quantized() {
		t.Fatal("-int8 spec built fp32 tables")
	}
	if len(stores) != len(m.SLS) {
		t.Fatalf("%d stores, want %d tables (%s)", len(stores), len(m.SLS), desc)
	}
	for i, op := range m.SLS {
		want := op.LocalStore()
		got := stores[i]
		if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
			t.Fatalf("table %d: %dx%d, want %dx%d", i, got.Rows(), got.Cols(), want.Rows(), want.Cols())
		}
		g, w := make([]float32, got.Cols()), make([]float32, want.Cols())
		for id := 0; id < got.Rows(); id++ {
			got.ReadRow(int64(id), g)
			want.ReadRow(int64(id), w)
			for j := range g {
				if math.Float32bits(g[j]) != math.Float32bits(w[j]) {
					t.Fatalf("table %d row %d col %d: %v, want %v", i, id, j, g[j], w[j])
				}
			}
		}
	}
}
