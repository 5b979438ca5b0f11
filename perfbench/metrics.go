package main

// metricDef is one metric the benchmark reports. bound applies to
// end-to-end metrics only: the share of the parent's median by which the
// metric may worsen before a change counts as a regression. moves and
// where apply to per-layer metrics only: the end-to-end metric a change in
// the layer metric should move, and the workload where that shows.
type metricDef struct {
	name, unit, better string
	bound              float64
	moves, where       string
}

// endToEnd are measured with tracing off, over the measured phase only
// (set-up sessions excluded). The time bounds are wide because the fleets
// saturate a small shared host: CPU steal and contention from neighbours
// move throughput, latency and even CPU time per session by 10-20% for
// minutes at a time, while gas barely moves. setup_s keeps the largest
// bound.
var endToEnd = []metricDef{
	{name: "sessions_per_s", unit: "1/s", better: "higher", bound: 0.24},
	{name: "session_p50_s", unit: "s", better: "lower", bound: 0.24},
	{name: "session_p99_s", unit: "s", better: "lower", bound: 0.24},
	{name: "dispute_p50_s", unit: "s", better: "lower", bound: 0.24},
	// The dispute tail is a mean, not a high percentile: federated
	// disputes either file directly or wait out an escalation slot, and
	// the escalated share moves with CPU contention, so a percentile near
	// that share flips between the two modes from run to run.
	{name: "dispute_mean_s", unit: "s", better: "lower", bound: 0.24},
	{name: "cpu_s_per_session", unit: "s", better: "lower", bound: 0.24},
	{name: "gas_per_session", unit: "gas", better: "lower", bound: 0.05},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.2},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

const (
	all       = "all"
	auto      = "auto-persession"
	batch     = "batch-rollup-wal"
	federated = "federated-disputes"
)

// perLayer come from the traced run: registry series the layers publish,
// spans collected from the tracer, and the CPU profile folded by module.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "hub.queue_wait_p50_s", unit: "s", better: "lower", moves: "session_p50_s", where: all},
	}
	for _, st := range []string{"deployed", "signed", "executed", "submitted", "settled", "rolled-up"} {
		defs = append(defs, metricDef{name: "hub.stage_mean_s." + st, unit: "s", better: "lower", moves: "session_p50_s", where: all})
	}
	defs = append(defs, []metricDef{
		{name: "hub.receipt_wait_share", unit: "ratio", better: "lower", moves: "sessions_per_s", where: batch},
		{name: "chain.blocks_per_session", unit: "count", better: "lower", moves: "sessions_per_s", where: auto},
		{name: "chain.txs_per_block", unit: "count", better: "higher", moves: "session_p50_s", where: batch},
		{name: "chain.mine_mean_s", unit: "s", better: "lower", moves: "sessions_per_s", where: auto},
		{name: "chain.exec_mean_s", unit: "s", better: "lower", moves: "sessions_per_s", where: auto},
		{name: "chain.receipt_wait_p50_s", unit: "s", better: "lower", moves: "session_p50_s", where: batch},
		{name: "chain.receipt_wait_p99_s", unit: "s", better: "lower", moves: "session_p50_s", where: batch},
		{name: "chain.txs_dropped", unit: "count", better: "lower", moves: "session_p50_s", where: batch},
		{name: "keccak.permutes_per_session", unit: "count", better: "lower", moves: "cpu_s_per_session", where: all},
		{name: "secp256k1.glv_splits_per_session", unit: "count", better: "lower", moves: "cpu_s_per_session", where: all},
		{name: "whisper.posts_per_session", unit: "count", better: "lower", moves: "session_p50_s", where: all},
		{name: "whisper.drop_frac", unit: "ratio", better: "lower", moves: "failed", where: federated},
		{name: "whisper.sign_exchange_p50_s", unit: "s", better: "lower", moves: "session_p50_s", where: all},
		{name: "store.append_mean_s", unit: "s", better: "lower", moves: "session_p50_s", where: batch},
		{name: "store.frames_per_batch", unit: "count", better: "higher", moves: "session_p50_s", where: batch},
		{name: "store.bytes_per_session", unit: "bytes", better: "lower", moves: "session_p50_s", where: batch},
		{name: "rollup.leaves_per_epoch", unit: "count", better: "higher", moves: "gas_per_session", where: batch},
		{name: "rollup.epoch_mean_s", unit: "s", better: "lower", moves: "session_p50_s", where: batch},
		{name: "rollup.post_gas_per_leaf", unit: "gas", better: "lower", moves: "gas_per_session", where: batch},
		{name: "rollup.leaf_wait_p50_s", unit: "s", better: "lower", moves: "session_p50_s", where: batch},
		{name: "tower.dispute_mean_s", unit: "s", better: "lower", moves: "dispute_p50_s", where: federated},
		{name: "tower.filed_per_lie", unit: "ratio", better: "lower", moves: "dispute_p50_s", where: federated},
		{name: "federation.adopt_mean_s", unit: "s", better: "lower", moves: "cpu_s_per_session", where: federated},
		{name: "federation.vouch_honored_frac", unit: "ratio", better: "higher", moves: "cpu_s_per_session", where: federated},
		{name: "federation.sig_rejected", unit: "count", better: "lower", moves: "sessions_per_s", where: federated},
		{name: "cpu.busy_cores", unit: "cores", better: "higher", moves: "sessions_per_s", where: batch},
	}...)
	for _, mod := range cpuModules {
		defs = append(defs, metricDef{name: "cpu.share." + mod, unit: "ratio", better: "lower", moves: "cpu_s_per_session", where: all})
	}
	return append(defs, []metricDef{
		{name: "runtime.allocs_per_session", unit: "count", better: "lower", moves: "cpu_s_per_session", where: all},
		{name: "trace.overhead_frac", unit: "ratio", better: "lower", moves: "sessions_per_s", where: all},
	}...)
}()
