package model

import (
	"strings"
	"testing"

	"recsys/internal/stats"
)

// TestBuildSpec covers the -model spec grammar every command shares.
func TestBuildSpec(t *testing.T) {
	cases := []struct {
		spec   string
		name   string
		weight int
		ok     bool
	}{
		{"rmc1", "default", 1, true},
		{"filter=rmc1:500@2", "filter", 2, true},
		{"ranker=rmc3:500", "ranker", 1, true},
		{"q=rmc2-int8:500", "q", 1, true},
		{"qm=rmc1-int8mlp:500", "qm", 1, true},
		{"=rmc1", "", 0, false},
		{"rmc1@0", "", 0, false},
		{"rmc1:-5", "", 0, false},
		{"nope", "", 0, false},
		{"rmc1-int8mlpx", "", 0, false},
		// Large variants, any case, with every suffix.
		{"big=RMC1-LARGE:2000@3", "big", 3, true},
		{"rmc2-large-int8:100000", "default", 1, true},
		{"rmc3-large-int8mlp:100000", "default", 1, true},
		// Malformed forms.
		{"", "", 0, false},
		{"-int8", "", 0, false},
		{"rmc1:", "", 0, false},
		{"rmc1:x", "", 0, false},
		{"rmc1:500:2", "", 0, false},
		{"rmc1@", "", 0, false},
		{"rmc1@2@3", "", 0, false},
		{"a=b=rmc1", "", 0, false},
		{"rmc1-large-", "", 0, false},
		{"rmc1-int8-large", "", 0, false},
	}
	rng := stats.NewRNG(1)
	for _, c := range cases {
		spec, err := ParseSpec(c.spec, 1000)
		var m *Model
		if err == nil {
			m, err = spec.Build(rng.Split())
		}
		if c.ok != (err == nil) {
			t.Errorf("spec %q: err=%v, want ok=%v", c.spec, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		if spec.Name != c.name || spec.Weight != c.weight || m == nil {
			t.Errorf("spec %q = (%q, %v, %d), want (%q, _, %d)", c.spec, spec.Name, m, spec.Weight, c.name, c.weight)
		}
		// Suffix semantics: -int8 quantizes tables only, -int8mlp both.
		lower := strings.ToLower(c.spec)
		wantTables := strings.Contains(lower, "-int8")
		wantMLPs := strings.Contains(lower, "-int8mlp")
		if m.Quantized() != wantTables || m.Int8MLPs() != wantMLPs {
			t.Errorf("spec %q: tables=%v mlps=%v, want %v/%v",
				c.spec, m.Quantized(), m.Int8MLPs(), wantTables, wantMLPs)
		}
	}
}

// TestParseSpecPresetAndScale: the spec resolves to the preset table's
// configuration, shrunk by the explicit or default scale.
func TestParseSpecPresetAndScale(t *testing.T) {
	for _, c := range []struct {
		spec  string
		want  Config
		scale int
	}{
		{"rmc1", RMC1Small(), 100},
		{"rmc1-large", RMC1Large(), 100},
		{"rmc2-int8:7", RMC2Small(), 7},
		{"x=rmc2-large@2", RMC2Large(), 100},
		{"RMC3", RMC3Small(), 100},
		{"rmc3-large:1", RMC3Large(), 1},
		{"ncf-int8mlp", MLPerfNCF(), 100},
	} {
		spec, err := ParseSpec(c.spec, 100)
		if err != nil {
			t.Fatalf("%q: %v", c.spec, err)
		}
		want := c.want
		if c.scale > 1 {
			want = want.Scaled(c.scale)
		}
		if spec.Scale != c.scale || spec.Config.Name != want.Name || spec.Config.Tables[0] != want.Tables[0] {
			t.Errorf("%q: scale %d config %s %+v, want %d %s %+v", c.spec, spec.Scale,
				spec.Config.Name, spec.Config.Tables[0], c.scale, want.Name, want.Tables[0])
		}
	}
	if _, err := ParseSpec("rmc9", 1); err == nil || !strings.Contains(err.Error(), "rmc3-large") {
		t.Errorf("unknown preset error should list the presets, got %v", err)
	}
}
