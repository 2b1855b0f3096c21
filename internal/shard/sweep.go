package shard

import (
	"uhtm/internal/core"
	"uhtm/internal/mem"
)

// SweepConfig is the cluster shape the cross-shard crash sweep runs:
// small enough for an exhaustive sweep over every 2PC injection point,
// with a shrunken cache hierarchy (conflicts and overflows within a
// handful of writes), commit tracking for the oracle, and Par 1 so one
// injector may hook every shard without races.
func SweepConfig() Config {
	cfg := Config{
		Shards:        2,
		CoresPerShard: 2,
		Domains:       1,
		Rounds:        2,
		TxPerCore:     2,
		WritesPerTx:   2,
		ReadsPerTx:    1,
		CrossPerRound: 3,
		CrossShards:   2,
		LinesPerShard: 8,
		Seed:          42,
		Par:           1,
	}
	g := mem.DefaultConfig()
	g.L1Size = 8 * mem.LineSize
	g.L1Ways = 2
	g.LLCSize = 8 * mem.LineSize
	g.LLCWays = 4
	g.DRAMCacheSize = 64 * mem.LineSize
	g.DRAMCacheWays = 4
	cfg.Geom = &g
	opts := core.DefaultOptions()
	opts.TrackCommits = true
	cfg.Opts = opts
	return cfg
}
