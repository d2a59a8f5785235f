package fasttrack_test

import (
	"testing"

	"fasttrack/internal/noctest"
)

// TestShardEquivalence runs the FastTrack rows of the shared fabric suite
// (noctest.Cases): every variant (Full and Inject, with and without
// express-link pipelining) must produce a bit-identical delivered stream,
// counter set, and telemetry event log when stepped shard-parallel or
// sharded through Step. With -race this doubles as the shard data-race
// stress for the express planes.
func TestShardEquivalence(t *testing.T) {
	noctest.ForEach(t, "fasttrack", noctest.RunShardEquivalence)
}
