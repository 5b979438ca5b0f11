package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"onoffchain/internal/telemetry"
)

// series renders a registry series id the way telemetry.Registry.Snapshot
// keys it: name{k="v",...} (labels in the order given, which callers keep
// sorted), or the bare name without labels.
func series(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// ratio is a/b, or 0 when nothing happened (b == 0): a layer the workload
// never exercises reads as zero, not as NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the q-th quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// layerMetrics attributes a traced phase to the layers: counters and
// histograms the layers publish into the fleet's registry (as deltas over
// the phase), spans collected through the tracer's tee, and the CPU
// profile folded by module. untracedRate is sessions_per_s of the
// untraced run the tracing overhead is measured against.
func layerMetrics(f *fleet, p *phase, profileGz []byte, untracedRate float64) (map[string]float64, error) {
	n := float64(len(p.sessions))
	lies := 0
	for _, s := range p.sessions {
		if s.lie {
			lies++
		}
	}
	honest := n - float64(lies)
	delta := func(name string, labels ...string) float64 {
		k := series(name, labels...)
		return p.regAfter[k] - p.regBefore[k]
	}
	histMean := func(name string, labels ...string) float64 {
		return ratio(delta(name+"_sum", labels...), delta(name+"_count", labels...))
	}
	m := map[string]float64{}

	// Spans of the measured sessions' traces, grouped by trace.
	measured := make(map[uint64]*session, len(p.sessions))
	for i := range p.sessions {
		measured[p.sessions[i].trace.TraceID] = &p.sessions[i]
	}
	byTrace := map[uint64][]telemetry.Span{}
	for _, sp := range f.spans.all() {
		if measured[sp.TraceID] != nil {
			byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
		}
	}
	var queueWait, receiptWaits, signExchange, leafWait, towerDisputes, adopts []float64
	var chainWall, sessionWall time.Duration
	for id, spans := range byTrace {
		s := measured[id]
		sessionWall += s.latency()
		var admitted, firstStage, enqueued, posted time.Time
		var waits []telemetry.Span
		for _, sp := range spans {
			switch {
			case sp.Layer == "hub" && sp.SpanID == s.trace.Span:
				admitted = sp.Start
			case sp.Layer == "hub" && strings.HasPrefix(sp.Name, "stage:"):
				if firstStage.IsZero() || sp.Start.Before(firstStage) {
					firstStage = sp.Start
				}
			case sp.Layer == "chain" && sp.Parent == s.trace.Span:
				// The session's own parties' submit-to-receipt waits
				// (federated towers' rebuild spans hang below their adopt
				// span instead).
				waits = append(waits, sp)
				receiptWaits = append(receiptWaits, sp.Dur.Seconds())
			case sp.Layer == "whisper" && sp.Name == "sign_exchange":
				signExchange = append(signExchange, sp.Dur.Seconds())
			case sp.Layer == "rollup" && sp.Name == "leaf_enqueued":
				enqueued = sp.Start
			case sp.Layer == "rollup" && sp.Name == "leaf_posted":
				posted = sp.Start
			case sp.Layer == "tower" && sp.Name == "dispute":
				towerDisputes = append(towerDisputes, sp.Dur.Seconds())
			case sp.Layer == "federation" && sp.Name == "adopt":
				adopts = append(adopts, sp.Dur.Seconds())
			}
		}
		if !admitted.IsZero() && !firstStage.IsZero() {
			queueWait = append(queueWait, firstStage.Sub(admitted).Seconds())
		}
		if !enqueued.IsZero() && !posted.IsZero() {
			leafWait = append(leafWait, posted.Sub(enqueued).Seconds())
		}
		chainWall += unionDuration(waits)
	}

	m["hub.queue_wait_p50_s"] = quantile(queueWait, 0.5)
	for _, st := range []string{"deployed", "signed", "executed", "submitted", "settled", "rolled-up"} {
		m["hub.stage_mean_s."+st] = histMean("hub_stage_seconds", "stage", st)
	}
	m["hub.receipt_wait_share"] = ratio(chainWall.Seconds(), sessionWall.Seconds())

	m["chain.blocks_per_session"] = ratio(float64(p.blocks), n)
	m["chain.txs_per_block"] = histMean("chain_block_txs")
	m["chain.mine_mean_s"] = histMean("chain_mine_seconds")
	m["chain.exec_mean_s"] = histMean("chain_exec_seconds", "exec", "serial")
	m["chain.receipt_wait_p50_s"] = quantile(receiptWaits, 0.5)
	m["chain.receipt_wait_p99_s"] = quantile(receiptWaits, 0.99)
	m["chain.txs_dropped"] = delta("chain_txs_dropped_total")

	m["keccak.permutes_per_session"] = ratio(delta("keccak_permutes_total"), n)
	m["secp256k1.glv_splits_per_session"] = ratio(delta("secp_glv_splits_total"), n)

	posts := delta("whisper_posts_total")
	m["whisper.posts_per_session"] = ratio(posts, n)
	m["whisper.drop_frac"] = ratio(delta("whisper_dropped_total", "reason", "expired")+
		delta("whisper_dropped_total", "reason", "backpressure"), posts)
	m["whisper.sign_exchange_p50_s"] = quantile(signExchange, 0.5)

	m["store.append_mean_s"] = histMean("store_append_seconds")
	m["store.frames_per_batch"] = histMean("store_batch_frames")
	m["store.bytes_per_session"] = ratio(delta("store_bytes_total"), n)

	leaves := delta("rollup_leaves_total")
	m["rollup.leaves_per_epoch"] = ratio(leaves, delta("rollup_epochs_total"))
	m["rollup.epoch_mean_s"] = histMean("rollup_epoch_seconds")
	m["rollup.post_gas_per_leaf"] = ratio(delta("rollup_post_gas_total"), leaves)
	m["rollup.leaf_wait_p50_s"] = quantile(leafWait, 0.5)

	m["tower.dispute_mean_s"] = mean(towerDisputes)
	m["tower.filed_per_lie"] = ratio(float64(p.towersAfter.filed-p.towersBefore.filed), float64(lies))

	m["federation.adopt_mean_s"] = mean(adopts)
	m["federation.vouch_honored_frac"] = ratio(float64(p.towersAfter.vouched-p.towersBefore.vouched), honest)
	m["federation.sig_rejected"] = float64(p.towersAfter.sigRejected - p.towersBefore.sigRejected)

	wall := p.end.Sub(p.start).Seconds()
	m["cpu.busy_cores"] = ratio(p.cpu.Seconds(), wall)
	shares, err := cpuShares(profileGz)
	if err != nil {
		return nil, err
	}
	for _, mod := range cpuModules {
		m["cpu.share."+mod] = shares[mod]
	}
	m["runtime.allocs_per_session"] = ratio(float64(p.mallocs), n)
	m["trace.overhead_frac"] = 1 - ratio(sessionsPerSec(p), untracedRate)
	return m, nil
}

// unionDuration is the wall time covered by at least one of the spans.
func unionDuration(spans []telemetry.Span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	var total time.Duration
	var end time.Time
	for _, sp := range spans {
		s, e := sp.Start, sp.Start.Add(sp.Dur)
		if s.Before(end) {
			s = end
		}
		if e.After(s) {
			total += e.Sub(s)
			end = e
		}
	}
	return total
}
