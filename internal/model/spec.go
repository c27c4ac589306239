package model

import (
	"fmt"
	"strconv"
	"strings"

	"recsys/internal/stats"
)

// DefaultName is the registry name of a spec without a name= part.
const DefaultName = "default"

// Spec is one parsed model spec, the value of the commands' -model
// flag: name=preset[:scale][@weight], where name= and @weight matter
// only to a multi-model server and preset is a presets entry,
// case-insensitive, optionally suffixed "-int8" (row-wise int8
// embedding tables) or "-int8mlp" (int8 tables plus int8 MLP compute).
type Spec struct {
	// Name is the registry name; DefaultName when the spec has none.
	Name string
	// Weight is the scheduling weight among co-located models (≥ 1).
	Weight int
	// Scale is the embedding-table shrink factor; ≤ 1 keeps full size.
	Scale int
	// Config is the preset, already shrunk by Scale.
	Config Config
	// Int8Tables and Int8MLPs are the quantization suffixes: -int8 sets
	// the first, -int8mlp both, so Int8Tables marks either suffix.
	Int8Tables, Int8MLPs bool
}

// ParseSpec parses one model spec; defaultScale applies when the spec
// has no :scale part.
func ParseSpec(spec string, defaultScale int) (Spec, error) {
	name, weight, scale := DefaultName, 1, defaultScale
	rest := spec
	if eq := strings.IndexByte(rest, '='); eq >= 0 {
		name, rest = rest[:eq], rest[eq+1:]
		if name == "" {
			return Spec{}, fmt.Errorf("model: empty model name in %q", spec)
		}
	}
	var err error
	if at := strings.IndexByte(rest, '@'); at >= 0 {
		weight, err = strconv.Atoi(rest[at+1:])
		if err != nil || weight <= 0 {
			return Spec{}, fmt.Errorf("model: bad weight in %q", spec)
		}
		rest = rest[:at]
	}
	if colon := strings.IndexByte(rest, ':'); colon >= 0 {
		scale, err = strconv.Atoi(rest[colon+1:])
		if err != nil || scale <= 0 {
			return Spec{}, fmt.Errorf("model: bad scale in %q", spec)
		}
		rest = rest[:colon]
	}
	base, int8MLPs := strings.CutSuffix(strings.ToLower(rest), "-int8mlp")
	int8Tables := int8MLPs
	if !int8MLPs {
		base, int8Tables = strings.CutSuffix(base, "-int8")
	}
	cfg, err := preset(base)
	if err != nil {
		return Spec{}, err
	}
	s := CustomSpec(cfg, scale)
	s.Name, s.Weight, s.Int8Tables, s.Int8MLPs = name, weight, int8Tables, int8MLPs
	return s, nil
}

// CustomSpec is the spec of an explicit configuration, shrunk by scale
// like a parsed preset's.
func CustomSpec(cfg Config, scale int) Spec {
	if scale > 1 {
		cfg = cfg.Scaled(scale)
	}
	return Spec{Name: DefaultName, Weight: 1, Scale: scale, Config: cfg}
}

// preset returns the configuration of a preset name (case-insensitive,
// without quantization suffix).
func preset(name string) (Config, error) {
	var names []string
	for _, p := range presets {
		if strings.EqualFold(name, p.name) {
			return p.cfg(), nil
		}
		names = append(names, p.name)
	}
	return Config{}, fmt.Errorf("model: unknown preset %q (want one of %s)", name, strings.Join(names, ", "))
}

// Build derives the spec's weights from rng and applies its
// quantization. Callers pass a Split of their seed RNG; cmd/serve
// builds its i-th -model from the i-th Split of stats.NewRNG(-seed),
// and a cmd/embshard shard (the embedding tier serves one model)
// builds from the first, so a serving node and its shards materialize
// bit-identical tables from the same spec and seed.
func (s Spec) Build(rng *stats.RNG) (*Model, error) {
	m, err := Build(s.Config, rng)
	if err != nil {
		return nil, err
	}
	if s.Int8Tables {
		m.QuantizeTables()
	}
	if s.Int8MLPs {
		m.QuantizeMLPs()
	}
	return m, nil
}
