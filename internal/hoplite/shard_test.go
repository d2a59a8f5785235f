package hoplite_test

import (
	"testing"

	"fasttrack/internal/hoplite"
	"fasttrack/internal/noctest"
)

// TestShardEquivalence runs the Hoplite rows of the shared fabric suite
// (noctest.Cases): the sharded step protocol — real goroutines, one per
// shard, and shards stepped through Step — must be bit-identical to the
// sequential engine in delivered stream, counters, and telemetry event
// order. Run with -race this is also the shard data-race stress.
func TestShardEquivalence(t *testing.T) {
	noctest.ForEach(t, "hoplite", noctest.RunShardEquivalence)
}

// TestConfigureShardsClampsAndResets pins the edge semantics on a
// non-square fabric: 16 shards clamp to the 4 rows and shard 0 owns the
// first row of 8.
func TestConfigureShardsClampsAndResets(t *testing.T) {
	nw, err := hoplite.New(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	noctest.ConfigureShardsEdges(t, nw)
}
