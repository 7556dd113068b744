package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"weaver"
	"weaver/internal/obs"
)

// snapshot is everything read at one edge of the traced window.
type snapshot struct {
	stats   weaver.Stats
	metrics obs.Snapshot
	mem     runtime.MemStats
	gcCPU   float64 // cumulative GC CPU seconds
	cpu     float64 // cumulative CPU seconds of every class
}

// takeSnapshot reads the cluster's counters, then forces a collection so
// that the runtime's CPU-class totals, which advance only when a GC cycle
// ends, are current. The forced cycle at the end of the window charges the
// window for collecting what it allocated.
func takeSnapshot(c *weaver.Cluster) snapshot {
	s := snapshot{stats: c.Stats(), metrics: c.Metrics()}
	runtime.GC()
	runtime.ReadMemStats(&s.mem)
	rm := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(rm)
	if rm[0].Value.Kind() == metrics.KindFloat64 && rm[1].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU, s.cpu = rm[0].Value.Float64(), rm[1].Value.Float64()
	}
	return s
}

// totals sums the per-server counters of one Stats snapshot.
type totals struct {
	committed, conflicts, invalid, retries, nops, announces         uint64
	nopsSeen, visits, batches, orderQueries, cacheHits, readRefines uint64
	versionsLive                                                    uint64
}

func sumStats(st weaver.Stats) totals {
	var t totals
	for _, g := range st.Gatekeepers {
		t.committed += g.TxCommitted
		t.conflicts += g.TxConflicts
		t.invalid += g.TxInvalid
		t.retries += g.TxRetries
		t.nops += g.Nops
		t.announces += g.Announces
	}
	for _, s := range st.Shards {
		t.nopsSeen += s.NopsSeen
		t.visits += s.ProgVisits
		t.batches += s.ProgBatches
		t.orderQueries += s.OrderQueries
		t.cacheHits += s.CacheHits
		t.readRefines += s.ReadRefines
		t.versionsLive += s.VersionsLive
	}
	return t
}

// layerInput is what the per-layer metrics are computed from.
type layerInput struct {
	before, after   snapshot
	secs            float64
	win             *tally
	logs            []*spanLog
	lagMax          int64
	cpu             map[string]float64
	cpuSamples      int64
	setup           setupTimes
	untracedReadP50 float64 // ms
}

// layerValues computes every per-layer metric from the traced window. Each
// ratio's base is the one its metricDef states; an empty base reports 0
// and is marked n/a in the table.
func layerValues(in layerInput) map[string]value {
	b, a := sumStats(in.before.stats), sumStats(in.after.stats)
	d := func(f func(totals) uint64) float64 { return float64(f(a) - f(b)) }
	committed := d(func(t totals) uint64 { return t.committed })
	reads := float64(len(in.win.reads))
	ops := float64(in.win.ops)
	mb, ma := in.before.metrics, in.after.metrics
	ctr := func(name string) float64 { return float64(ma.Counters[name] - mb.Counters[name]) }
	hist := func(name string) histDelta { return deltaHist(mb.Histograms[name], ma.Histograms[name]) }
	lookups := float64(countSpans(in.logs, "explain_where"))

	vals := map[string]value{}
	rat := func(name string, num, den float64, base string) {
		r, ok := ratio(num, den)
		vals[name] = value{v: r, na: !ok, note: fmt.Sprintf("base %s=%.4g", base, den)}
	}
	// µs quantile of a nanosecond latency histogram.
	histUS := func(name, metric string, q float64) {
		h := hist(metric)
		v, ok := h.quantile(q)
		vals[name] = value{v: v / 1e3, na: !ok, note: fmt.Sprintf("n=%d", h.n)}
	}
	histMean := func(name, metric string) {
		h := hist(metric)
		v, ok := h.mean()
		vals[name] = value{v: v, na: !ok, note: fmt.Sprintf("n=%d", h.n)}
	}
	spanP50 := func(name, span string) {
		ds := newDist(durations(in.logs, span))
		vals[name] = value{v: ds.median(), na: len(ds) == 0, note: fmt.Sprintf("n=%d", len(ds))}
	}
	perSec := func(name string, n float64) {
		vals[name] = value{v: n / in.secs, note: fmt.Sprintf("%.0f in %.2fs", n, in.secs)}
	}

	// gatekeeper
	histUS("gatekeeper.mint_p50_us", "weaver_gk_mint_seconds", 0.5)
	histUS("gatekeeper.commit_p50_us", "weaver_gk_commit_seconds", 0.5)
	histUS("gatekeeper.forward_p50_us", "weaver_gk_forward_seconds", 0.5)
	histUS("gatekeeper.queue_wait_p99_us", "weaver_gk_queue_wait_seconds", 0.99)
	conflicts := d(func(t totals) uint64 { return t.conflicts })
	invalid := d(func(t totals) uint64 { return t.invalid })
	rat("gatekeeper.commit_success_ratio", committed, committed+conflicts+invalid, "commit attempts")
	rat("gatekeeper.invalid_per_1k_commits", 1000*invalid, committed, "commits")
	rat("gatekeeper.retries_per_commit", d(func(t totals) uint64 { return t.retries }), committed, "commits")
	perSec("gatekeeper.nops_per_s", d(func(t totals) uint64 { return t.nops }))
	perSec("gatekeeper.announces_per_s", d(func(t totals) uint64 { return t.announces }))
	histMean("gatekeeper.hop_fanout_mean", "weaver_prog_hop_fanout")
	vals["gatekeeper.apply_lag_max"] = value{v: float64(in.lagMax), note: "sampled every 20ms"}

	// oracle
	ob, oa := in.before.stats.Oracle, in.after.stats.Oracle
	queries := float64(oa.Queries - ob.Queries)
	rat("oracle.queries_per_commit", queries, committed, "commits")
	rat("oracle.assigns_per_commit", float64(oa.Assigns-ob.Assigns), committed, "commits")
	proactive, reactive := ctr("weaver_oracle_proactive_hits_total"), ctr("weaver_oracle_reactive_refines_total")
	rat("oracle.reactive_share", reactive, proactive+reactive, "ordering checks")
	rat("oracle.vclock_hit_ratio", float64(oa.VClockHits-ob.VClockHits), queries, "oracle queries")
	rat("oracle.cache_hit_ratio", float64(oa.CacheHits-ob.CacheHits), queries, "oracle queries")
	histUS("oracle.refine_wait_p50_us", "weaver_oracle_refine_wait_seconds", 0.5)
	histUS("oracle.refine_wait_p99_us", "weaver_oracle_refine_wait_seconds", 0.99)
	vals["oracle.events_live"] = value{v: float64(oa.Events), note: "end of window"}

	// kvstore
	kb, ka := in.before.stats.Store, in.after.stats.Store
	storeCommits, storeConflicts := float64(ka.Commits-kb.Commits), float64(ka.Conflicts-kb.Conflicts)
	histUS("kvstore.store_commit_p50_us", "weaver_gk_store_commit_seconds", 0.5)
	histUS("kvstore.store_commit_p99_us", "weaver_gk_store_commit_seconds", 0.99)
	histUS("kvstore.wal_fsync_p50_us", "weaver_wal_fsync_seconds", 0.5)
	histUS("kvstore.wal_fsync_p99_us", "weaver_wal_fsync_seconds", 0.99)
	histMean("kvstore.group_commit_txns_mean", "weaver_wal_group_commit_txns")
	rat("kvstore.gets_per_commit", float64(ka.Gets-kb.Gets), storeCommits, "store commits")
	rat("kvstore.conflict_ratio", storeConflicts, storeCommits+storeConflicts, "store commits+conflicts")

	// shard
	histUS("shard.queue_wait_p50_us", "weaver_shard_queue_wait_seconds", 0.5)
	histUS("shard.queue_wait_p99_us", "weaver_shard_queue_wait_seconds", 0.99)
	perSec("shard.nops_seen_per_s", d(func(t totals) uint64 { return t.nopsSeen }))
	histUS("shard.apply_p50_us", "weaver_shard_apply_seconds", 0.5)
	histUS("shard.apply_p99_us", "weaver_shard_apply_seconds", 0.99)
	histMean("shard.batch_txns_mean", "weaver_shard_batch_txns")
	orderQ, cacheHits := d(func(t totals) uint64 { return t.orderQueries }), d(func(t totals) uint64 { return t.cacheHits })
	rat("shard.order_queries_per_commit", orderQ, committed, "commits")
	rat("shard.order_cache_hit_ratio", cacheHits, cacheHits+orderQ, "concurrent-pair orderings")
	rat("shard.read_refines_per_read", d(func(t totals) uint64 { return t.readRefines }), reads, "reads")
	rat("shard.prog_visits_per_read", d(func(t totals) uint64 { return t.visits }), reads, "reads")
	rat("shard.prog_batches_per_read", d(func(t totals) uint64 { return t.batches }), reads, "reads")
	vals["shard.versions_live"] = value{v: float64(a.versionsLive), note: "end of window"}

	// plan / index
	contacted, pruned := ctr("weaver_plan_shards_contacted_total"), ctr("weaver_plan_shards_pruned_total")
	rat("plan.shards_contacted_per_lookup", contacted, lookups, "lookups")
	rat("plan.pruned_share", pruned, contacted+pruned, "shards planned")
	rat("plan.recheck_rounds_per_lookup", ctr("weaver_plan_recheck_rounds_total"), lookups, "lookups")
	spanP50("plan.build_p50_us", "plan.build")
	spanP50("plan.scatter_p50_us", "plan.scatter")
	spanP50("plan.merge_p50_us", "plan.merge")
	rat("plan.marker_writes_per_commit", ctr("weaver_plan_marker_writes_total"), committed, "commits")
	histUS("index.lookup_p50_us", "weaver_index_lookup_seconds", 0.5)

	// wire
	rat("wire.frames_per_op", ctr("weaver_wire_frames_total"), ops, "ops")
	rat("wire.bytes_per_op", ctr("weaver_wire_encoded_bytes_total"), ops, "ops")

	// CPU
	for _, l := range cpuLayers {
		vals["cpu."+l+".share"] = value{v: in.cpu[l], na: in.cpuSamples == 0, note: fmt.Sprintf("of %d samples", in.cpuSamples)}
	}

	// runtime
	ma0, ma1 := in.before.mem, in.after.mem
	rat("runtime.allocs_per_op", float64(ma1.Mallocs-ma0.Mallocs), ops, "ops")
	rat("runtime.alloc_bytes_per_op", float64(ma1.TotalAlloc-ma0.TotalAlloc), ops, "ops")
	rat("runtime.gc_cpu_share", in.after.gcCPU-in.before.gcCPU, in.after.cpu-in.before.cpu, "cpu-seconds")

	// set-up
	secs := func(d time.Duration) value { return value{v: d.Seconds()} }
	vals["setup.open_s"] = secs(in.setup.open)
	vals["setup.load_s"] = secs(in.setup.load)
	vals["setup.warmup_s"] = secs(in.setup.warmup)

	// client spans
	spanP50("tx.read_us", "tx.get_vertex")
	vals["tx.commit_p50_us"] = medianValue(in.win.commits)
	vals["tx.commit_p99_us"] = tailValue(in.win.commits, 0.99)
	rat("tx.attempts_per_commit", float64(in.win.txTries), float64(in.win.txOK), "committed RunTx")
	tracedP50 := newDist(in.win.reads).median()
	rat("trace.overhead_ratio", tracedP50, in.untracedReadP50, "untraced read_p50_ms")
	return vals
}
