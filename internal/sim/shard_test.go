package sim_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"fasttrack/internal/core"
	"fasttrack/internal/traffic"
)

// TestGoldenShardEquivalence pins the one contract core.SyntheticOptions.Shards
// still has: it is ignored. A job carrying any shard count must reproduce the
// sequential sparse engine's Result bit for bit, across hoplite and every
// FastTrack variant, two patterns, both sweep extremes and S ∈ {1, 2, 4}. The
// benchmark's sim.shard2_speedup probe times such jobs and relies on this;
// the test leaves together with that probe and the field.
func TestGoldenShardEquivalence(t *testing.T) {
	cfgs := []struct {
		name string
		cfg  core.Config
	}{
		{"hoplite-8x8", core.Hoplite(8)},
		{"ft-full", core.FastTrack(8, 2, 1)},
		{"ft-inject", core.FastTrack(8, 2, 1).WithVariant(core.VariantInject)},
		{"ft-depop", core.FastTrack(8, 2, 2)},
		{"ft-pipelined", core.FastTrack(8, 2, 1).WithPipeline(1)},
	}
	pats := []traffic.Pattern{traffic.Random{}, traffic.Transpose{}}
	for _, c := range cfgs {
		gn := goldenNet{c.name, c.cfg.Build, nil, 8, 8}
		for _, pat := range pats {
			for _, rate := range []float64{0.05, 1.0} {
				seq := runGolden(t, gn, pat, rate, false)
				for _, s := range []int{1, 2, 4} {
					name := fmt.Sprintf("%s/%s/%.2f/shards=%d", c.name, pat.Name(), rate, s)
					t.Run(name, func(t *testing.T) {
						got, err := core.RunSynthetic(context.Background(), c.cfg, core.SyntheticOptions{
							Pattern: pat.Name(), Rate: rate, PacketsPerPE: 120, Seed: 17, Shards: s,
						})
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(seq, got) {
							t.Errorf("Shards=%d changed the result:\nseq: %+v\ngot: %+v", s, seq, got)
						}
					})
				}
			}
		}
	}
}
