package server

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"uhtm/internal/crash"
	"uhtm/internal/mem"
	"uhtm/internal/shard"
	"uhtm/internal/wal"
)

// keysOnShard returns the first n keys at or above start whose home
// shard (under the server's routing hash) is sh.
func keysOnShard(sh, shards, n int, start uint64) []uint64 {
	var out []uint64
	for k := start; len(out) < n; k++ {
		if shard.ShardOf(k, shards) == sh {
			out = append(out, k)
		}
	}
	return out
}

// shardBaselines captures every shard's durable NVM data image.
func shardBaselines(s *Server) []map[mem.Addr]mem.Line {
	out := make([]map[mem.Addr]mem.Line, 0, len(s.shards))
	for _, sh := range s.shards {
		out = append(out, crash.Baseline(sh.Machine()))
	}
	return out
}

// TestShardedEndToEnd drives a 4-shard server over the wire: routed
// single-key ops, the all-shard SCAN merge, a cross-shard MULTI through
// 2PC, and the sharded STATS fields.
func TestShardedEndToEnd(t *testing.T) {
	s := startServer(t, Config{Shards: 4, Cores: 2, Buckets: 64})
	c := dialT(t, s)

	for k := uint64(1); k <= 40; k++ {
		ks := strconv.FormatUint(k, 10)
		if rep := mustDo(t, c, "PUT", ks, "v"+ks); rep.Str != "OK" {
			t.Fatalf("PUT %s → %+v", ks, rep)
		}
	}
	for k := uint64(1); k <= 40; k++ {
		ks := strconv.FormatUint(k, 10)
		if rep := mustDo(t, c, "GET", ks); string(rep.Bulk) != "v"+ks {
			t.Fatalf("GET %s → %+v", ks, rep)
		}
	}
	if rep := mustDo(t, c, "DEL", "7"); rep.Kind != ReplyInt || rep.Int != 1 {
		t.Fatalf("DEL → %+v", rep)
	}

	// SCAN merges every shard's slice into one ascending result.
	rep := mustDo(t, c, "SCAN", "1", "100")
	if rep.Kind != ReplyArray || len(rep.Array) != 2*39 {
		t.Fatalf("SCAN → kind=%v len=%d, want 39 pairs", rep.Kind, len(rep.Array))
	}
	var prev uint64
	for i := 0; i < len(rep.Array); i += 2 {
		k, err := strconv.ParseUint(string(rep.Array[i].Bulk), 10, 64)
		if err != nil || k <= prev || k == 7 {
			t.Fatalf("merged SCAN broken at element %d (%q, prev %d)", i, rep.Array[i].Bulk, prev)
		}
		prev = k
	}
	// And respects the count cap across shards.
	if rep := mustDo(t, c, "SCAN", "1", "5"); len(rep.Array) != 10 {
		t.Fatalf("SCAN count 5 returned %d elements, want 10", len(rep.Array))
	}

	// A MULTI whose keys straddle shards commits through 2PC and reads
	// its own writes back.
	k0 := keysOnShard(0, 4, 1, 1000)[0]
	k3 := keysOnShard(3, 4, 1, 1000)[0]
	mustDo(t, c, "MULTI")
	mustDo(t, c, "PUT", strconv.FormatUint(k0, 10), "cross-a")
	mustDo(t, c, "PUT", strconv.FormatUint(k3, 10), "cross-b")
	rep = mustDo(t, c, "EXEC")
	if rep.Kind != ReplyArray || len(rep.Array) != 2 {
		t.Fatalf("cross EXEC → %+v", rep)
	}
	if rep := mustDo(t, c, "GET", strconv.FormatUint(k0, 10)); string(rep.Bulk) != "cross-a" {
		t.Fatalf("GET after cross EXEC → %+v", rep)
	}
	if rep := mustDo(t, c, "GET", strconv.FormatUint(k3, 10)); string(rep.Bulk) != "cross-b" {
		t.Fatalf("GET after cross EXEC → %+v", rep)
	}

	// SCAN cannot join a transaction on a sharded server.
	mustDo(t, c, "MULTI")
	if rep := mustDo(t, c, "SCAN", "1", "5"); rep.Kind != ReplyErr || !strings.Contains(rep.Str, "SCAN is not allowed inside MULTI") {
		t.Fatalf("SCAN in MULTI → %+v, want rejection", rep)
	}
	if rep := mustDo(t, c, "EXEC"); rep.Kind != ReplyErr || !strings.Contains(rep.Str, "EXECABORT") {
		t.Fatalf("EXEC after rejected SCAN → %+v", rep)
	}

	// STATS reports the shard count and the 2PC counters.
	var doc statsDoc
	if rep := mustDo(t, c, "STATS"); json.Unmarshal(rep.Bulk, &doc) != nil {
		t.Fatalf("STATS not decodable: %+v", rep)
	}
	if doc.Server.Shards != 4 {
		t.Fatalf("STATS shards = %d, want 4", doc.Server.Shards)
	}
	if doc.Server.CrossCommits < 1 {
		t.Fatalf("STATS cross_commits = %d, want >= 1", doc.Server.CrossCommits)
	}
	if doc.Machine.Commits == 0 {
		t.Fatal("aggregated machine stats show no commits")
	}
}

// TestCrossShardMultiAtomicityUnderCrash commits a stream of cross-shard
// MULTIs, power-fails the whole cluster via CRASH, and verifies every
// shard against the committed-prefix oracle plus read-your-acked-writes
// — the cluster-level acked-implies-durable drill.
func TestCrossShardMultiAtomicityUnderCrash(t *testing.T) {
	s := startServer(t, Config{Shards: 2, Cores: 2, Buckets: 64, Prepopulate: 16})
	baselines := shardBaselines(s)
	c := dialT(t, s)

	k0s := keysOnShard(0, 2, 20, 100)
	k1s := keysOnShard(1, 2, 20, 100)
	acked := map[uint64]string{}
	for i := 0; i < 20; i++ {
		v := fmt.Sprintf("cross-%d", i)
		mustDo(t, c, "MULTI")
		mustDo(t, c, "PUT", strconv.FormatUint(k0s[i], 10), v+"a")
		mustDo(t, c, "PUT", strconv.FormatUint(k1s[i], 10), v+"b")
		rep := mustDo(t, c, "EXEC")
		if rep.Kind != ReplyArray {
			t.Fatalf("cross EXEC %d → %+v", i, rep)
		}
		acked[k0s[i]] = v + "a"
		acked[k1s[i]] = v + "b"
	}
	if rep := mustDo(t, c, "CRASH"); rep.Str != "OK" {
		t.Fatalf("CRASH → %+v", rep)
	}
	for k, sh := range s.shards {
		if d := crash.VerifyRecovered(sh.Machine(), 4, baselines[k]); d != "" {
			t.Fatalf("shard %d committed-prefix oracle: %s", k, d)
		}
	}
	for k, v := range acked {
		rep := mustDo(t, c, "GET", strconv.FormatUint(k, 10))
		if string(rep.Bulk) != v {
			t.Fatalf("acked key %d after cluster recovery = %q, want %q", k, rep.Bulk, v)
		}
	}
	// The cluster serves — including new cross transactions — after
	// recovery.
	mustDo(t, c, "MULTI")
	mustDo(t, c, "PUT", strconv.FormatUint(k0s[0], 10), "post-crash-a")
	mustDo(t, c, "PUT", strconv.FormatUint(k1s[0], 10), "post-crash-b")
	if rep := mustDo(t, c, "EXEC"); rep.Kind != ReplyArray {
		t.Fatalf("cross EXEC after recovery → %+v", rep)
	}
}

// TestHaltMidCrossRecovery injects a power failure at every 2PC
// injection point a served cross-shard EXEC fires — the five shard.Point*
// steps and the coordinator decision log's own points — on each shard
// that fires it. Before the commit decision is durable the request fails
// with lost power and neither key changes; from the durable decision on
// the request is acked and recovery completes it on both shards. Either
// way every shard passes the committed-prefix oracle and the cluster
// commits again afterwards.
func TestHaltMidCrossRecovery(t *testing.T) {
	k0 := strconv.FormatUint(keysOnShard(0, 2, 1, 500)[0], 10)
	k1 := strconv.FormatUint(keysOnShard(1, 2, 1, 500)[0], 10)
	dec := func(p string) string { return shard.PointPrefixDecision + p }
	type halt struct {
		shard int
		point string
	}
	for _, group := range []struct {
		name  string
		acked bool
		halts []halt
	}{
		{"before-decision", false, []halt{
			{0, shard.PointPrepareLogged}, {1, shard.PointPrepareLogged},
			{0, dec(wal.PointAppendRecord)}, {0, dec(wal.PointAppendCtrl)},
		}},
		{"after-decision", true, []halt{
			{0, shard.PointDecisionLogged},
			{0, shard.PointApplyMark}, {1, shard.PointApplyMark},
			{0, shard.PointApplyLine}, {1, shard.PointApplyLine},
			{0, shard.PointResolveCkpt}, {0, dec(wal.PointReclaimCtrl)},
		}},
	} {
		t.Run(group.name, func(t *testing.T) {
			for _, h := range group.halts {
				t.Run(fmt.Sprintf("s%d.%s", h.shard, h.point), func(t *testing.T) {
					s := startServer(t, Config{Shards: 2, Cores: 2, Buckets: 64})
					c := dialT(t, s)
					mustDo(t, c, "PUT", k0, "old-a")
					mustDo(t, c, "PUT", k1, "old-b")
					baselines := shardBaselines(s)

					in := crash.Arm(crash.Injection{Point: h.point, Visit: 1})
					halt := s.Cluster().Shards()[h.shard].Engine().HaltNow
					s.Cluster().SetHook(h.shard, func(p string) { in.Hit(p, halt) })
					mustDo(t, c, "MULTI")
					mustDo(t, c, "PUT", k0, "new-a")
					mustDo(t, c, "PUT", k1, "new-b")
					rep := mustDo(t, c, "EXEC")
					if !in.Fired() {
						t.Fatal("injection never fired")
					}
					in.Disarm()
					acked := rep.Kind == ReplyArray
					lost := rep.Kind == ReplyErr && strings.Contains(rep.Str, "lost power")
					if !acked && !lost {
						t.Fatalf("EXEC across the halt → %+v, want an ack or a lost-power error", rep)
					}
					if acked != group.acked {
						t.Fatalf("EXEC across the halt acked=%v, want %v (%+v)", acked, group.acked, rep)
					}

					want := map[string]string{k0: "old-a", k1: "old-b"}
					if acked {
						want = map[string]string{k0: "new-a", k1: "new-b"}
					}
					for k, v := range want {
						if rep := mustDo(t, c, "GET", k); string(rep.Bulk) != v {
							t.Fatalf("GET %s after recovery → %+v, want %q (acked=%v)", k, rep, v, acked)
						}
					}
					for k, sh := range s.shards {
						if d := crash.VerifyRecovered(sh.Machine(), 4, baselines[k]); d != "" {
							t.Fatalf("shard %d committed-prefix oracle: %s", k, d)
						}
					}

					// The recovered cluster commits the retry.
					mustDo(t, c, "MULTI")
					mustDo(t, c, "PUT", k0, "retry-a")
					mustDo(t, c, "PUT", k1, "retry-b")
					if rep := mustDo(t, c, "EXEC"); rep.Kind != ReplyArray {
						t.Fatalf("retry EXEC → %+v", rep)
					}
					if rep := mustDo(t, c, "GET", k1); string(rep.Bulk) != "retry-b" {
						t.Fatalf("GET after retry → %+v", rep)
					}
				})
			}
		})
	}
}

// TestLoadgenCrossFrac drives the generator's cross-shard knob against a
// sharded server and checks the report's 2PC counters; against a
// single-shard server the knob is a configuration error.
func TestLoadgenCrossFrac(t *testing.T) {
	s := startServer(t, Config{Shards: 2, Cores: 2, Buckets: 64, Prepopulate: 32})
	rep, err := RunLoad(LoadConfig{
		Addr:      s.Addr().String(),
		Conns:     2,
		QPS:       300,
		Duration:  300 * time.Millisecond,
		KeySpace:  64,
		CrossFrac: 1,
		ReadFrac:  0.5,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.CrossFrac != 1 {
		t.Fatalf("report cross_frac = %v, want 1", rep.CrossFrac)
	}
	if rep.CrossCommits == 0 {
		t.Fatalf("cross_frac 1 drove no cross-shard commits: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("cross-shard load saw %d request errors", rep.Errors)
	}

	single := startServer(t, Config{Cores: 2, Buckets: 64})
	if _, err := RunLoad(LoadConfig{
		Addr:      single.Addr().String(),
		Duration:  50 * time.Millisecond,
		CrossFrac: 0.5,
	}); err == nil || !strings.Contains(err.Error(), "sharded") {
		t.Fatalf("CrossFrac on a single-shard server: err = %v, want sharded-server error", err)
	}
}
