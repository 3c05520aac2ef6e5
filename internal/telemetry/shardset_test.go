package telemetry

import (
	"strings"
	"testing"

	"rvma/internal/sim"
)

// A CounterFrom column samples, on each shard, the sum of the counters
// that shard registered, and the merged column adds the shards.
func TestCounterFromSumsEachShardsSources(t *testing.T) {
	g := sim.NewShardGroup(1, 2, sim.Nanosecond)
	var a, b, c uint64
	ss := NewShardSet(g, 10*sim.Nanosecond)
	ss.CounterFrom("events", 0, &a)
	ss.CounterFrom("events", 1, &b)
	ss.CounterFrom("events", 1, &c)
	ss.Start()
	g.Shard(0).Schedule(5*sim.Nanosecond, func() { a = 3 })
	g.Shard(1).Schedule(15*sim.Nanosecond, func() { b, c = 4, 5 })
	g.Shard(0).Schedule(25*sim.Nanosecond, func() {})
	g.Run()
	var buf strings.Builder
	if err := ss.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "time_ns,events\n10,3\n20,12\n"; buf.String() != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", buf.String(), want)
	}
}
