package hub

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/rollup"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/store"
)

// RollupConfig switches the hub from per-session settlement (one submit +
// one finalize transaction per session) to Merkle-batched settlement: a
// hub-hosted sequencer collects finished-session outcomes into epochs and
// posts ONE rollup transaction per epoch to a generated rollup-registry
// contract. The challenge window moves to the batch — disputing means
// opening one leaf against the posted root with a Merkle proof, then
// running the existing signed-copy dispute — so the whole enforcement
// stack downstream of the leaf-open is unchanged. Nil keeps the
// per-session path, which remains the default and the differential oracle
// the rollup path is tested against.
type RollupConfig struct {
	// Depth fixes the epoch Merkle tree (and proof) depth; an epoch holds
	// at most 2^Depth leaves. Default 8.
	Depth int
	// EpochCap seals an epoch as soon as it holds this many leaves
	// (default 2^Depth).
	EpochCap int
	// EpochAge seals a partial epoch this long after its first leaf
	// arrived (default 250ms) — the liveness bound for a trickle of
	// sessions.
	EpochAge time.Duration
	// Window is the batch challenge period in chain seconds; leaves can
	// be disputed until postedAt + Window. Default 600, matching the
	// default per-session challenge period.
	Window uint64
}

// sequencerKey mints the hub's FIXED sequencer identity. Deterministic
// and generation-stable on purpose: the rollup registry admits exactly
// one posting address, so a recovered hub must come back as the same
// sequencer the crashed generation deployed the registry with. The scalar
// lives outside the session-key namespace ("HUB" base word) and the
// faucet namespace.
func sequencerKey() (*secp256k1.PrivateKey, error) {
	var d [32]byte // big-endian scalar: "SEQ" base word
	binary.BigEndian.PutUint64(d[16:24], 0x53_45_51)
	binary.BigEndian.PutUint64(d[24:32], 1)
	return secp256k1.PrivateKeyFromBytes(d[:])
}

// initRollup builds (without starting) the hub-hosted sequencer: mint and
// fund its identity, seed it from folded WAL state (nil for a fresh hub),
// and hook its durable state into WAL compaction. Split from
// launchRollup because recovery must re-arm session guards between the
// two — Start can re-post torn epochs, and those posts must open batch
// windows on a tower that already knows the sessions.
func (h *Hub) initRollup(f *rollup.Folded) error {
	rc := h.cfg.Rollup
	key, err := sequencerKey()
	if err != nil {
		return err
	}
	party := hybrid.NewParticipant(key, h.chain, nil)
	party.Ctx = h.ctx
	// The sequencer pays for the registry deploy and every epoch post.
	if h.chain.BalanceAt(party.Addr).Lt(eth(100)) {
		h.faucetMu.Lock()
		hash, err := h.faucet.SendTxAsync(&party.Addr, eth(1000), 21_000, nil)
		h.faucetMu.Unlock()
		if err != nil {
			return fmt.Errorf("hub: fund sequencer: %w", err)
		}
		r, err := h.faucet.WaitReceipt(hash)
		if err != nil {
			return fmt.Errorf("hub: fund sequencer: %w", err)
		}
		if !r.Succeeded() {
			return errors.New("hub: sequencer funding reverted (faucet empty?)")
		}
	}
	window := rc.Window
	if window == 0 {
		window = 600
	}
	seq, err := rollup.New(rollup.Config{
		Party:     party,
		Depth:     rc.Depth,
		EpochCap:  rc.EpochCap,
		EpochAge:  rc.EpochAge,
		Window:    window,
		Journal:   h.journal.log,
		OnEpoch:   h.onEpoch,
		Telemetry: h.cfg.Telemetry,
		Tracer:    h.tracer,
	})
	if err != nil {
		return err
	}
	if err := seq.Seed(f); err != nil {
		return err
	}
	h.seq = seq
	h.journal.extra = seq.StateRecords
	return nil
}

// launchRollup arms the tower and starts the sequencer. The pre-Start arm
// matters on recovery: Start re-posts epochs the crash tore between seal
// and receipt, and those posts must open batch windows. A fresh hub has
// no registry before Start, so it arms after — no epochs can post in
// between. The CachedEpochs sweep re-examines every posted epoch whose
// batch window may still be open (recovery's replacement for the
// per-session RestoreWindow path, which cannot carry Merkle context).
func (h *Hub) launchRollup() error {
	if reg := h.seq.Registry(); reg != nil {
		h.tower.ArmRollup(reg, h.seq)
	}
	if err := h.seq.Start(); err != nil {
		return err
	}
	h.tower.ArmRollup(h.seq.Registry(), h.seq)
	for _, ep := range h.seq.CachedEpochs() {
		h.tower.IngestEpoch(ep)
	}
	return nil
}

func (h *Hub) startRollup() error {
	if err := h.initRollup(nil); err != nil {
		return err
	}
	return h.launchRollup()
}

// RollupHandles exposes the hub-hosted sequencer's registry and epoch
// source so federated backup towers can guard the same batches via
// federation.Config.RollupRegistry/RollupSource. Returns (nil, nil) in
// per-session mode.
func (h *Hub) RollupHandles() (*rollup.Registry, rollup.Source) {
	if h.seq == nil {
		return nil, nil
	}
	return h.seq.Registry(), h.seq
}

// onEpoch runs after each epoch's post transaction lands: meter the
// settlement commit and open the batch windows on the hub's own tower.
// The tower also ingests the epoch via its EpochPosted subscription —
// IngestEpoch is idempotent — but this direct feed covers recovery
// re-posts that land before the tower's log replay runs.
func (h *Hub) onEpoch(e *rollup.Epoch) {
	if e.GasUsed > 0 { // zero: reconciled as already posted by a dead generation
		h.metrics.settleTxs.Inc()
		h.metrics.settleGas.Add(e.GasUsed)
	}
	h.tower.IngestEpoch(e)
}

// settleRollup replaces the per-session submit transaction with a leaf
// enqueue. The durable intent (KindSubmitted) still precedes the
// irreversible hand-off, and StageSubmitted now means "leaf enqueued with
// the sequencer". An adversarial spec enqueues the flipped outcome — the
// sequencer faithfully posts the lie, and the tower must catch it by
// opening the leaf.
func (h *Hub) settleRollup(lc *lifecycle, sess *hybrid.Session, watch *Watch, submitted uint64) *Report {
	t := lc.t
	fail := func(err error) *Report { return h.failSession(lc, err) }
	if rep := h.gate(lc, StageSubmitted); rep != nil {
		return rep
	}
	if err := h.journal.log(&store.Record{Kind: store.KindSubmitted, SID: t.ID, U1: submitted}); err != nil {
		return fail(fmt.Errorf("hub: wal: %w", err))
	}
	fut, err := h.seq.Enqueue(rollup.Leaf{SID: t.ID, Contract: sess.OnChainAddr, Outcome: submitted}, t.tc)
	if err != nil {
		if h.crashed.Load() || errors.Is(err, rollup.ErrHalted) {
			return h.crashReport(t, lc.rep.Stage)
		}
		return fail(fmt.Errorf("hub: rollup enqueue: %w", err))
	}
	if !h.advance(lc, StageSubmitted) {
		return h.crashReport(t, StageSubmitted)
	}
	return h.awaitRollup(lc, sess, watch, fut)
}

// awaitRollup is the rollup-mode tail of the lifecycle: wait for the
// leaf's epoch to post, barrier on the tower, then classify the outcome
// from chain truth — exactly the shape of awaitSettlement, with the
// finalize transaction replaced by nothing at all (the epoch post IS the
// settlement commit).
//
// The barrier is per watch (WaitDecided), not the tower-global
// WaitCaughtUp: rollup settlement never moves the shared clock, so no
// other session's window can be carried past its deadline by this one,
// and an honest leaf need not queue behind other sessions' disputes.
func (h *Hub) awaitRollup(lc *lifecycle, sess *hybrid.Session, watch *Watch, fut *rollup.Future) *Report {
	t, rep := lc.t, lc.rep
	fail := func(err error) *Report { return h.failSession(lc, err) }

	lc.began = time.Now()
	_, _, err := fut.Wait(h.ctx)
	if err != nil {
		if h.crashed.Load() || h.ctx.Err() != nil || errors.Is(err, rollup.ErrHalted) {
			return h.crashReport(t, StageSubmitted)
		}
		return fail(fmt.Errorf("hub: rollup post: %w", err))
	}
	// Barrier: the post receipt has landed, so the epoch's block is ≤ the
	// height read here. Once the tower has processed that block it has
	// opened this leaf's window and started its dispute job; after the job
	// decides, a fraudulent leaf has already been opened and enforced.
	h.tower.WaitDecided(watch, h.chain.Height())
	if h.crashed.Load() {
		return h.crashReport(t, StageSubmitted)
	}
	settled, err := sess.IsSettled()
	if err != nil {
		return fail(err)
	}
	if settled {
		raised, won := watch.Disputed()
		byDispute := watch.SettledByDispute()
		if !byDispute {
			byDispute = len(h.chain.FilterLogs(chain.FilterQuery{Address: &sess.OnChainAddr, Topic: &hybrid.TopicDisputeResolved})) > 0
		}
		rep.Disputed = raised || byDispute
		if raised && !won && !byDispute {
			return fail(errors.New("hub: leaf dispute filed but not enforced"))
		}
		if !h.advance(lc, StageDisputed) {
			return h.crashReport(t, StageDisputed)
		}
		if !h.advance(lc, StageResolved) {
			return h.crashReport(t, StageResolved)
		}
		h.terminal(lc, StageResolved)
		return rep
	}
	// A dispute that was raised but never enforced leaves a lie committed
	// in the posted root: never report that leaf as rolled up.
	if raised, won := watch.Disputed(); raised && !won {
		return fail(errors.New("hub: leaf dispute filed but not enforced"))
	}
	// Honest leaf: the posted root commits the true outcome and no
	// per-session transaction exists. The batch window may still be open,
	// but the tower's dispute decision for this leaf is already final
	// (that is what the barrier waited for) — release the guard.
	if !h.advance(lc, StageRolledUp) {
		return h.crashReport(t, StageRolledUp)
	}
	h.terminal(lc, StageRolledUp)
	h.tower.release(sess.OnChainAddr)
	return rep
}
