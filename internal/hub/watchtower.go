package hub

import (
	"fmt"
	"sync"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/rollup"
	"onoffchain/internal/store"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
)

// Watchtower is the hub's always-on chain monitor (in the tradition of
// state-channel watchtowers): it subscribes to newly mined blocks, scans
// them for the lifecycle events the generated on-chain contracts emit,
// tracks every open challenge window, and — when a submitted result
// disagrees with its own sandboxed execution of the signed off-chain
// bytecode — files a dispute on behalf of the honest participant, inside
// the challenge window.
//
// Dispute filing is asynchronous: the event loop never transacts. Every
// open window is handed to the dispute pipeline — a pacer goroutine per
// undecided window that consults the dispute gate (federation arbitration;
// absent a gate the answer is always "file now") and a bounded worker set
// that verifies and files. The caught-up barrier counts undecided windows:
// WaitCaughtUp(h) returns only when every block ≤ h is examined AND every
// dispute decision for the windows they opened has been reached, which is
// what keeps the dispute-before-barrier safety argument intact — nobody
// can advance the clock past a window whose verdict is still pending.
// WaitDecided(e, h) is the same barrier narrowed to one watch, for
// callers that never move the clock (rollup settlement).
//
// With a durable hub, the tower journals every window it opens and a
// block cursor after each block it finishes, so a restarted tower knows
// exactly which windows it was guarding and which blocks it never saw.
type Watchtower struct {
	chain   *chain.Chain
	sub     *chain.BlockLogSubscription
	filter  *chain.AddressSet // guarded contracts; gates log delivery chain-side
	metrics *metrics
	wg      sync.WaitGroup

	// Collaborators installed after construction: the hub wires tracer and
	// journal right after NewWatchtower, and federation.AttachHub installs
	// observer/gate on an already-running hub — by which time the event
	// loop may have processed blocks (the rollup registry deploy mines one
	// during hub.New), so every access goes through cbMu. All four are
	// set before any session is guarded and never changed after.
	cbMu     sync.RWMutex
	tracer   *telemetry.Tracer // set by the hub (or SetTracer); nil: no spans
	journal  *journal          // set by the hub; nil for a standalone tower
	observer TowerObserver
	gate     DisputeGate

	sem     chan struct{} // bounded dispute worker slots
	pacerWG sync.WaitGroup
	stopCh  chan struct{} // closed by Stop: pacers wind down undecided
	haltCh  chan struct{} // closed by halt: the "process" is dead

	// fileFault, when set (tests only, before any session is guarded),
	// runs before each filing attempt's dispute transactions; a non-nil
	// error fails the attempt as a failed transaction would.
	fileFault func(e *Watch) error

	// Rollup guard state (nil in per-session mode): the registry whose
	// EpochPosted events open batch challenge windows, and the Source that
	// resolves an epoch number to its leaves + proofs.
	rollupMu  sync.Mutex
	rollupReg *rollup.Registry
	rollupSrc rollup.Source

	mu        sync.Mutex
	cond      *sync.Cond
	entries   map[types.Address]*Watch
	processed uint64 // highest block number fully processed
	pending   int    // windows whose dispute decision is still open
	stopped   bool
	halted    bool // simulated crash: the tower is "dead"
}

// TowerObserver mirrors the tower's guard state to an external listener —
// the federation layer — without handing it ownership of sessions.
// Callbacks run outside the tower's locks, on the event loop and dispute
// pipeline goroutines; implementations must be concurrency-safe and must
// not block for long (they stall block examination).
type TowerObserver interface {
	// Guarded: the tower took a session's contract under guard.
	Guarded(e *Watch, contract types.Address)
	// WindowOpened: a submission opened (or refreshed) a challenge window.
	WindowOpened(e *Watch, w Window)
	// WindowClosed: the contract settled — by dispute resolution when
	// byDispute, by unchallenged finalization otherwise.
	WindowClosed(contract types.Address, byDispute bool)
	// DisputeClaimed: this tower claimed the dispute and is about to file
	// (the intent exists before the transaction does).
	DisputeClaimed(e *Watch, contract types.Address)
	// DisputeFiled: the dispute transactions completed; enforced reports
	// whether the chain settled to the tower's verdict.
	DisputeFiled(e *Watch, contract types.Address, enforced bool)
	// BlockProcessed: the tower fully examined block n.
	BlockProcessed(n uint64)
}

// GateDecision is a dispute gate's verdict for one open window.
type GateDecision int

const (
	// GateFile: verify the submission now and file on a mismatch.
	GateFile GateDecision = iota
	// GateDefer: another guard is responsible right now; ask again after
	// the returned delay. The window stays pending (the caught-up barrier
	// stays held) until a later decision files or the contract settles.
	GateDefer
	// GateStandDown: this tower is permanently not responsible for the
	// window (e.g. its owner vouched for the submission); release it.
	GateStandDown
)

// DisputeGate arbitrates whether THIS tower should act on an open window
// right now. A nil gate means always GateFile — the single-tower hub's
// behavior. The federation installs a gate that defers to the window's
// assigned primary and escalates on staggered timeouts.
type DisputeGate func(e *Watch, w Window) (GateDecision, time.Duration)

// Watch is the watchtower's record of one guarded session.
type Watch struct {
	sess     *hybrid.Session
	honest   int                    // party index the tower files disputes as
	id       uint64                 // hub session ID (0 for sessions guarded standalone)
	scenario string                 // spec label, for federated guard-state export
	tc       telemetry.TraceContext // causal identity; zero when untraced

	expectOnce sync.Once
	expected   uint64
	expectErr  error
	expectSet  bool

	mu               sync.Mutex
	window           *Window
	rollup           *rollupLeaf // batch context; set when a posted epoch carries this session
	pending          bool        // a dispute pipeline job is driving this watch
	disputed         bool
	disputeWon       bool
	disputedAt       uint64 // chain time when the tower filed the dispute
	deadline         uint64 // window deadline at dispute time
	settled          bool
	settledByDispute bool
	settledCh        chan struct{} // closed when the contract settles
}

// Window is an open challenge window: a submission awaiting finalization.
type Window struct {
	Contract  types.Address
	Submitter types.Address
	Result    uint64
	OpenedAt  uint64 // submission block timestamp
	Deadline  uint64 // OpenedAt + challenge period
}

// NewWatchtower starts a tower on the chain. Stop() must be called to
// release the subscription and its goroutines. The second parameter is
// the hub's internal metrics sink; external callers (the federation's
// standalone towers) pass nil.
func NewWatchtower(c *chain.Chain, m *metrics) *Watchtower {
	if m == nil {
		m = newMetrics(nil)
	}
	// The tower subscribes at the chain's filter layer: only logs of
	// guarded contracts (a live, per-tower address set) with lifecycle
	// topics cross the channel, so N towers sharing a chain do not each
	// pay to receive — and scan — every other tower's traffic. Block
	// boundaries still arrive for every block (empty batches) to drive
	// the durable cursor and the caught-up barrier.
	filter := chain.NewAddressSet()
	w := &Watchtower{
		chain: c,
		sub: c.SubscribeBlockLogs(chain.FilterQuery{
			AddressIn: filter,
			Topics:    towerTopics,
		}),
		filter:  filter,
		metrics: m,
		entries: make(map[types.Address]*Watch),
		sem:     make(chan struct{}, 4),
		stopCh:  make(chan struct{}),
		haltCh:  make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	w.wg.Add(1)
	go w.loop()
	return w
}

// SetObserver installs the federation mirror. Must be called before any
// session is guarded.
func (w *Watchtower) SetObserver(obs TowerObserver) {
	w.cbMu.Lock()
	w.observer = obs
	w.cbMu.Unlock()
}

// SetDisputeGate installs the filing arbiter. Must be called before any
// session is guarded.
func (w *Watchtower) SetDisputeGate(g DisputeGate) {
	w.cbMu.Lock()
	w.gate = g
	w.cbMu.Unlock()
}

// SetTracer installs a span recorder for tower-layer events (windows
// opened, settlements, dispute filings). Must be called before any
// session is guarded; standalone federation towers use it.
func (w *Watchtower) SetTracer(tr *telemetry.Tracer) {
	w.cbMu.Lock()
	w.tracer = tr
	w.cbMu.Unlock()
}

// setJournal wires the hub's WAL (nil for a standalone tower). Like the
// setters above it may run after the event loop has started.
func (w *Watchtower) setJournal(j *journal) {
	w.cbMu.Lock()
	w.journal = j
	w.cbMu.Unlock()
}

// obs/disputeGate/spanTracer/jrnl are the loop-side reads of the
// late-installed collaborators.
func (w *Watchtower) obs() TowerObserver {
	w.cbMu.RLock()
	defer w.cbMu.RUnlock()
	return w.observer
}

func (w *Watchtower) disputeGate() DisputeGate {
	w.cbMu.RLock()
	defer w.cbMu.RUnlock()
	return w.gate
}

func (w *Watchtower) spanTracer() *telemetry.Tracer {
	w.cbMu.RLock()
	defer w.cbMu.RUnlock()
	return w.tracer
}

func (w *Watchtower) jrnl() *journal {
	w.cbMu.RLock()
	defer w.cbMu.RUnlock()
	return w.journal
}

// SetDisputeWorkers bounds the concurrent verify-and-file worker set
// (default 4). Must be called before any session is guarded.
func (w *Watchtower) SetDisputeWorkers(n int) {
	if n > 0 {
		w.sem = make(chan struct{}, n)
	}
}

// Metrics exposes the tower's counter snapshot (standalone towers have
// their own metrics; a hub-owned tower shares the hub's).
func (w *Watchtower) Metrics() Snapshot { return w.metrics.snapshot() }

// Guard registers a session whose on-chain contract the tower should
// monitor. honest is the party index the tower uses to file disputes;
// scenario labels the session's spec (federated towers gossip it so peers
// can rebuild the guard from their SpecRegistry — pass "" when unused).
// Must be called after DeployOnChain and SignAndExchange (the tower needs
// the address and the signed copy) and before any result is submitted.
func (w *Watchtower) Guard(sess *hybrid.Session, honest int, scenario string) (*Watch, error) {
	return w.guard(sess, honest, 0, scenario, telemetry.TraceContext{})
}

// GuardWithTrace is Guard carrying a causal trace context, so the spans a
// standalone tower records for this session (window openings, disputes)
// join the trace that produced the session — the federation passes the
// context it re-hydrated from gossip.
func (w *Watchtower) GuardWithTrace(sess *hybrid.Session, honest int, scenario string, tc telemetry.TraceContext) (*Watch, error) {
	return w.guard(sess, honest, 0, scenario, tc)
}

func (w *Watchtower) guard(sess *hybrid.Session, honest int, sid uint64, scenario string, tc telemetry.TraceContext) (*Watch, error) {
	if sess.OnChainAddr.IsZero() || sess.Copy == nil {
		return nil, fmt.Errorf("hub: session not ready to guard (deploy and sign first)")
	}
	if !sess.Split.Policy.LifecycleEvents {
		return nil, fmt.Errorf("hub: session's split policy has LifecycleEvents off; the watchtower cannot see its challenge windows")
	}
	e := &Watch{sess: sess, honest: honest, id: sid, scenario: scenario, tc: tc, settledCh: make(chan struct{})}
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return nil, fmt.Errorf("hub: watchtower stopped")
	}
	w.entries[sess.OnChainAddr] = e
	w.mu.Unlock()
	// Open the subscription filter for this contract BEFORE returning:
	// Guard is called before any result can be submitted, so the filter
	// is listening before the first event that matters can be mined.
	w.filter.Add(sess.OnChainAddr)
	if o := w.obs(); o != nil {
		o.Guarded(e, sess.OnChainAddr)
	}
	// A rollup-armed tower can adopt a guard AFTER the epoch carrying the
	// session was posted and ingested — federated guard gossip (whisper)
	// trails the chain's EpochPosted event, and the live ingest skipped
	// leaves nobody guarded yet. Re-examine cached epochs that carry this
	// contract so the late watch still gets its batch window and Merkle
	// leaf context, and its dispute goes through the leaf-open path.
	w.seedRollupContext(e)
	return e, nil
}

// epochLister is the optional Source extension that lets a tower re-check
// already-posted epochs when it adopts a guard late. The hub's sequencer
// satisfies it; a Source that cannot enumerate simply skips the re-check
// (its towers only guard leaves for sessions guarded before the post).
type epochLister interface {
	CachedEpochs() []*rollup.Epoch
}

// SID returns the hub session ID the watch guards (0 for sessions guarded
// standalone — e.g. a contract a federation tower mirrors for a peer).
func (e *Watch) SID() uint64 { return e.id }

// TraceCtx returns the causal trace context the session was guarded under
// (zero when untraced).
func (e *Watch) TraceCtx() telemetry.TraceContext { return e.tc }

// Contract returns the guarded on-chain address.
func (e *Watch) Contract() types.Address { return e.sess.OnChainAddr }

// Scenario returns the spec label the session was guarded under.
func (e *Watch) Scenario() string { return e.scenario }

// Honest returns the party index the tower disputes as.
func (e *Watch) Honest() int { return e.honest }

// Session exposes the guarded session. Federated towers read it to export
// guard state (party scalars, signed copy) to their peers; treat it as
// read-only.
func (e *Watch) Session() *hybrid.Session { return e.sess }

// Expected returns the tower's own verdict on the session outcome,
// computed once by privately executing the signed bytecode in a sandbox.
// It is exported on the Watch so the owning worker can pre-compute it in
// parallel instead of serializing inside the dispute pipeline.
func (e *Watch) Expected() (uint64, error) {
	e.expectOnce.Do(func() {
		out, err := hybrid.ExecuteOffChain(e.sess.Copy.Bytecode)
		if err != nil {
			e.expectErr = err
			return
		}
		e.expected = out.Result
		e.mu.Lock()
		e.expectSet = true
		e.mu.Unlock()
	})
	return e.expected, e.expectErr
}

// ExpectedCached returns the verdict only if it has already been computed
// — it never runs the sandbox. The federation's gate uses it to vouch for
// the hub's own sessions without charging backups a re-execution.
func (e *Watch) ExpectedCached() (uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.expected, e.expectSet
}

// SeedExpected installs a verdict obtained out-of-band (the session
// owner's gossiped hint) so a later Expected() never runs the sandbox.
// No-op once a verdict exists. Seeding an untrusted value is SAFE for
// enforcement: a dispute's resolution makes the miners recompute the
// result from the signed bytecode, so a dispute filed on a wrong hint
// merely settles the contract to the same (true) outcome and costs gas —
// it can never enforce a lie.
func (e *Watch) SeedExpected(v uint64) {
	e.expectOnce.Do(func() {
		e.expected = v
		e.mu.Lock()
		e.expectSet = true
		e.mu.Unlock()
	})
}

// Disputed reports whether the tower filed a dispute, and whether the
// dispute resolved to the tower's expected result.
func (e *Watch) Disputed() (raised, won bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.disputed, e.disputeWon
}

// SettledByDispute reports whether the contract's settlement the tower
// observed came from a dispute resolution (possibly filed by a peer
// tower) rather than an unchallenged finalization.
func (e *Watch) SettledByDispute() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.settled && e.settledByDispute
}

// DisputeTiming returns the chain time the dispute was filed at and the
// challenge-window deadline it beat. Zero values if no dispute was filed.
func (e *Watch) DisputeTiming() (at, deadline uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.disputedAt, e.deadline
}

// OpenWindow returns the currently open challenge window, or nil.
func (e *Watch) OpenWindow() *Window {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.settled || e.window == nil {
		return nil
	}
	cp := *e.window
	return &cp
}

// WaitCaughtUp blocks until the tower has fully processed every block up
// to and including height h AND reached a dispute decision for every
// window it has ever opened — filed-and-enforced, verified clean, stood
// down, or settled by someone else. Session owners MUST call this before
// finalizing or advancing the clock: it guarantees any fraudulent
// submission mined at or before h has already been enforced, so moving
// time past the window cannot freeze a lie into the contract. Returns
// immediately if the tower is stopped or crash-halted — callers on the
// crashed path re-check Hub.Crashed before acting.
func (w *Watchtower) WaitCaughtUp(h uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for (w.processed < h || w.pending > 0) && !w.stopped && !w.halted {
		w.cond.Wait()
	}
}

// WaitDecided is WaitCaughtUp narrowed to one watch: it blocks until every
// block up to and including h is processed AND this watch's dispute job,
// if one was started, has reached its decision. Other sessions' undecided
// windows do not hold it. That is sound only for a caller that never
// moves the shared clock: the global barrier exists because a clock jump
// could carry ANY open window past its deadline, while a session that
// merely reads its own outcome depends on its own window alone. Rollup
// settlement is such a caller — it never advances time. Like
// WaitCaughtUp it returns early when the tower is stopped or halted.
func (w *Watchtower) WaitDecided(e *Watch, h uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for (w.processed < h || e.jobPending()) && !w.stopped && !w.halted {
		w.cond.Wait()
	}
}

// jobPending reports whether a dispute pipeline job is driving the watch.
// Called under the tower lock (lock order: tower, then watch); releaseJob
// clears the flag before it broadcasts under the tower lock, so a waiter
// cannot miss the wake-up.
func (e *Watch) jobPending() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pending
}

// PendingDisputes counts windows whose dispute decision is still open.
func (w *Watchtower) PendingDisputes() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pending
}

// OpenWindows counts challenge windows the tower is currently tracking.
func (w *Watchtower) OpenWindows() int {
	w.mu.Lock()
	entries := make([]*Watch, 0, len(w.entries))
	for _, e := range w.entries {
		entries = append(entries, e)
	}
	w.mu.Unlock()
	n := 0
	for _, e := range entries {
		if e.OpenWindow() != nil {
			n++
		}
	}
	return n
}

// Stop unsubscribes, drains the event loop, winds down undecided dispute
// pacers (a deferred window is abandoned — durable state lets a restart
// re-arm it) and waits for in-flight dispute filings to complete.
func (w *Watchtower) Stop() {
	w.sub.Unsubscribe()
	w.wg.Wait()
	w.mu.Lock()
	alreadyStopped := w.stopped
	w.stopped = true
	w.cond.Broadcast()
	w.mu.Unlock()
	if !alreadyStopped {
		close(w.stopCh)
	}
	w.pacerWG.Wait()
}

// Watches returns the towers's current guard set. The federation uses it
// to back-fill its mirror when attaching to a hub that already guards
// sessions (a recovered hub federates after Recover re-armed its tower).
func (w *Watchtower) Watches() []*Watch {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]*Watch, 0, len(w.entries))
	for _, e := range w.entries {
		out = append(out, e)
	}
	return out
}

// Halt simulates the tower process dying right now (the crash-harness
// seam for standalone towers; Hub.Kill calls the same machinery): block
// delivery keeps draining but nothing is examined, journaled, or
// disputed, and barrier waiters are released.
func (w *Watchtower) Halt() { w.halt() }

// halt simulates the tower dying mid-flight (Hub.Kill): block delivery
// keeps draining but nothing is examined, journaled, or disputed, and
// barrier waiters are released so their workers can observe the crash.
func (w *Watchtower) halt() {
	w.mu.Lock()
	alreadyHalted := w.halted
	w.halted = true
	w.cond.Broadcast()
	w.mu.Unlock()
	if !alreadyHalted {
		close(w.haltCh)
	}
}

func (w *Watchtower) isHalted() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.halted
}

func (w *Watchtower) loop() {
	defer w.wg.Done()
	for b := range w.sub.BlockLogs() {
		if w.isHalted() {
			continue // the "process" is gone; drain and ignore
		}
		for _, l := range b.Logs {
			w.handleLog(l)
		}
		// The block is fully examined: durably advance the cursor, THEN
		// publish the progress. Recovery replays from cursor+1, so a crash
		// between examining and journaling re-examines the block — safe,
		// because every handler is idempotent. Re-check the crash flag
		// first: if Kill landed mid-processBlock, examine() refused to
		// journal or dispute, so advancing the cursor would durably skip
		// events the "dead" tower never acted on.
		if w.isHalted() {
			continue
		}
		if j := w.jrnl(); j != nil {
			j.log(&store.Record{Kind: store.KindCursor, U1: b.Number})
		}
		if o := w.obs(); o != nil {
			o.BlockProcessed(b.Number)
		}
		w.mu.Lock()
		if b.Number > w.processed {
			w.processed = b.Number
		}
		w.cond.Broadcast()
		w.mu.Unlock()
	}
}

// ReplayLogs feeds historical logs (FilterLogs / LogCursor output)
// through the same handlers as live blocks. Recovery — the hub's and a
// federation tower's — uses it to re-examine everything after the durable
// cursor; overlap with live delivery is harmless because the handlers are
// idempotent.
func (w *Watchtower) ReplayLogs(logs []*types.Log) {
	for _, l := range logs {
		w.handleLog(l)
	}
}

// MarkProcessed raises the processed watermark (recovery calls it after a
// replay so WaitCaughtUp barriers see the replayed height).
func (w *Watchtower) MarkProcessed(h uint64) {
	w.mu.Lock()
	if h > w.processed {
		w.processed = h
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// RestoreWindow re-arms a window from durable state (the WAL's or a
// federation journal's window record) and re-examines it through the
// dispute pipeline, exactly as if the submission had just been observed.
// On a rollup-armed tower the restored window may be a batch window whose
// gossip outran this tower's own EpochPosted processing, so the Merkle
// leaf context is seeded from cached epochs first — otherwise the dispute
// pipeline could file before the leaf-open context exists.
func (w *Watchtower) RestoreWindow(e *Watch, win Window) {
	w.seedRollupContext(e)
	w.examine(e, win.Result, win.OpenedAt, win.Deadline, win.Submitter)
}

// seedRollupContext back-fills a watch's batch leaf context from already
// posted epochs. Two paths need it: a guard adopted after its epoch's
// chain event was ingested (the live ingest skipped leaves nobody
// guarded), and a gossiped window restored before this tower's event loop
// reached the EpochPosted log. No-op unless the tower is rollup-armed and
// its Source can enumerate cached epochs; IngestEpoch is idempotent.
func (w *Watchtower) seedRollupContext(e *Watch) {
	reg, src := w.rollupHandles()
	if reg == nil || src == nil {
		return
	}
	lister, ok := src.(epochLister)
	if !ok {
		return
	}
	addr := e.sess.OnChainAddr
	for _, ep := range lister.CachedEpochs() {
		for _, leaf := range ep.Leaves {
			if leaf.Contract == addr {
				w.IngestEpoch(ep)
				return
			}
		}
	}
}

// rollupLeafOpenGas bounds one openLeaf transaction: a fixed number of
// keccak folds (the tree depth) plus one storage write.
const rollupLeafOpenGas = 1_000_000

// rollupLeaf pins a watch's leaf inside a posted epoch — everything a
// dispute needs to open the leaf against the batch root.
type rollupLeaf struct {
	reg   *rollup.Registry
	epoch uint64
	index int
	leaf  rollup.Leaf
	proof []types.Hash
}

// ArmRollup switches the tower into batch-settlement guarding: reg is the
// rollup registry whose EpochPosted events open batch challenge windows,
// src resolves an epoch number to its leaves and proofs (the hub's
// sequencer, or a federation tower's gossip cache). Adds the registry to
// the subscription filter; guarded sessions keep their per-session
// subscriptions too, so dispute resolutions still settle watches the
// normal way.
func (w *Watchtower) ArmRollup(reg *rollup.Registry, src rollup.Source) {
	w.rollupMu.Lock()
	w.rollupReg = reg
	w.rollupSrc = src
	w.rollupMu.Unlock()
	if reg != nil {
		w.filter.Add(reg.Addr)
	}
}

func (w *Watchtower) rollupHandles() (*rollup.Registry, rollup.Source) {
	w.rollupMu.Lock()
	defer w.rollupMu.Unlock()
	return w.rollupReg, w.rollupSrc
}

// onEpochPosted resolves an EpochPosted event to its epoch data and opens
// a batch window per guarded leaf. The hub's own tower resolves
// synchronously — its Source is the sequencer, which caches every epoch
// before posting it — so the caught-up barrier still counts these windows
// before the block is marked processed. A federated backup can see the
// chain event before the sequencer's gossip arrives; it polls off the
// event loop until the epoch shows up.
//
// The window opens at the timestamp of the log's block — the registry's
// postedAt is block.timestamp of the post — because the Source may still
// hold the epoch as in flight, before its post receipt has filled in
// PostedAt.
func (w *Watchtower) onEpochPosted(l *types.Log) {
	reg, src := w.rollupHandles()
	if reg == nil || src == nil || l.Address != reg.Addr {
		return
	}
	ev, err := rollup.DecodeEpochPosted(l)
	if err != nil {
		return
	}
	b, err := w.chain.BlockByNumber(l.BlockNumber)
	if err != nil {
		return
	}
	postedAt := b.Header.Time
	if ep, ok := src.EpochByNumber(ev.Epoch); ok {
		w.ingestEpoch(ep, postedAt)
		return
	}
	w.pacerWG.Add(1)
	go func() {
		defer w.pacerWG.Done()
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stopCh:
				return
			case <-w.haltCh:
				return
			case <-tick.C:
				if ep, ok := src.EpochByNumber(ev.Epoch); ok {
					w.ingestEpoch(ep, postedAt)
					return
				}
			}
		}
	}()
}

// IngestEpoch examines a posted epoch against the tower's guard set: each
// guarded leaf gets a batch challenge window (postedAt .. postedAt +
// window) plus its Merkle context, and rides the same dispute pipeline as
// a per-session submission — with enforcement routed through a leaf-open
// against the posted root before the dispute itself. Idempotent: the live
// event path, the sequencer's OnEpoch hook, and recovery all feed it.
func (w *Watchtower) IngestEpoch(ep *rollup.Epoch) {
	if ep != nil {
		w.ingestEpoch(ep, ep.PostedAt)
	}
}

// ingestEpoch is IngestEpoch with the post's chain time given explicitly
// (the event path reads it from the log's block).
func (w *Watchtower) ingestEpoch(ep *rollup.Epoch, postedAt uint64) {
	reg, _ := w.rollupHandles()
	if reg == nil || ep.Tree == nil {
		return
	}
	deadline := postedAt + reg.Window
	for i, leaf := range ep.Leaves {
		w.mu.Lock()
		e := w.entries[leaf.Contract]
		w.mu.Unlock()
		if e == nil {
			continue // another guard's session, or already settled/released
		}
		proof, err := ep.Tree.Proof(i)
		if err != nil {
			continue
		}
		e.mu.Lock()
		if e.rollup == nil {
			e.rollup = &rollupLeaf{reg: reg, epoch: ep.Number, index: i, leaf: leaf, proof: proof}
		}
		e.mu.Unlock()
		// The epoch claims this outcome for the session; examine it exactly
		// like a per-session submission. No submitter address exists — the
		// sequencer spoke for the session — so the window records the zero
		// address.
		w.examine(e, leaf.Outcome, postedAt, deadline, types.Address{})
	}
}

// release drops a guarded contract whose session reached a clean batch
// settlement (rolled up; the tower's dispute decision for its window is
// already final, or no window ever opened). The per-session paths never
// need this — settlement events delete entries in onSettled — but a
// rolled-up honest session emits no per-contract event, so the hub calls
// release at the RolledUp terminal.
func (w *Watchtower) release(addr types.Address) {
	w.mu.Lock()
	_, ok := w.entries[addr]
	delete(w.entries, addr)
	w.mu.Unlock()
	if !ok {
		return
	}
	w.filter.Remove(addr)
	if o := w.obs(); o != nil {
		o.WindowClosed(addr, false)
	}
}

// openLeaf pins the disputed leaf against its epoch's posted root. A
// revert is tolerated here: the on-chain exactly-once veto (a peer tower
// or a prior incarnation already opened this leaf) and a closed batch
// window both surface as reverts, and neither changes what the follow-up
// session-contract dispute will enforce — at-most-once enforcement is
// arbitrated by the contract's own settled flag, which the caller
// re-checks right after this returns.
func (w *Watchtower) openLeaf(e *Watch, rl *rollupLeaf) {
	opener := e.sess.Parties[e.honest]
	start := time.Now()
	rec, err := rl.reg.OpenLeaf(opener, rl.epoch, rl.leaf, rl.index, rl.proof, rollupLeafOpenGas)
	ok := err == nil && rec != nil && rec.Succeeded()
	if ok {
		w.metrics.leavesOpened.Inc()
	}
	if tr := w.spanTracer(); tr != nil && (e.id != 0 || e.tc.Valid()) {
		tr.RecordChild(e.tc, e.id, "tower", "leaf_open", start, time.Since(start),
			fmt.Sprintf("epoch=%d index=%d ok=%t", rl.epoch, rl.index, ok))
	}
}

// towerTopics are the lifecycle topics the tower subscribes to at the
// chain's filter layer AND dispatches in handleLog's switch — the two
// must cover the same set, so extend them together: a topic handled but
// not subscribed would only ever fire via ReplayLogs, a silent partial
// failure on the live path.
var towerTopics = []types.Hash{
	hybrid.TopicResultSubmitted,
	hybrid.TopicResultFinalized,
	hybrid.TopicDisputeResolved,
	rollup.TopicEpochPosted,
}

func (w *Watchtower) handleLog(l *types.Log) {
	if len(l.Topics) == 0 {
		return
	}
	if l.Topics[0] == rollup.TopicEpochPosted {
		// Batch settlement: one registry event opens a challenge window
		// for EVERY leaf in the epoch. Routed before the entries lookup —
		// the registry itself is in the filter set, not the sessions'.
		w.onEpochPosted(l)
		return
	}
	w.mu.Lock()
	e := w.entries[l.Address]
	w.mu.Unlock()
	if e == nil {
		return
	}
	switch l.Topics[0] {
	case hybrid.TopicResultSubmitted:
		w.onSubmission(e, l)
	case hybrid.TopicResultFinalized:
		w.onSettled(e, l.Address, false)
	case hybrid.TopicDisputeResolved:
		w.onSettled(e, l.Address, true)
	}
}

func (w *Watchtower) onSettled(e *Watch, addr types.Address, byDispute bool) {
	e.mu.Lock()
	first := !e.settled
	e.settled = true
	if byDispute {
		e.settledByDispute = true
	}
	e.window = nil
	ch := e.settledCh
	e.mu.Unlock()
	if first && ch != nil {
		close(ch) // wake the dispute pacer, if one is deferring
	}
	// The contract is settled for good (both paths set the on-chain
	// settled flag): drop the entry so a long-lived hub doesn't
	// accumulate every session it ever guarded. Holders of the *Watch
	// keep reading it safely.
	w.mu.Lock()
	delete(w.entries, addr)
	w.mu.Unlock()
	w.filter.Remove(addr) // settled for good: stop receiving its logs
	if tr := w.spanTracer(); first && tr != nil && (e.id != 0 || e.tc.Valid()) {
		tr.EventChild(e.tc, e.id, "tower", "settled", fmt.Sprintf("by_dispute=%t", byDispute))
	}
	if o := w.obs(); first && o != nil {
		o.WindowClosed(addr, byDispute)
	}
}

// onSubmission opens/refreshes the challenge window and hands it to the
// dispute pipeline.
func (w *Watchtower) onSubmission(e *Watch, l *types.Log) {
	ev, err := hybrid.DecodeResultSubmitted(l)
	if err != nil {
		return
	}
	w.metrics.submissionsSeen.Inc()
	period := e.sess.Split.Policy.ChallengePeriod
	w.examine(e, ev.Result, ev.At, ev.At+period, ev.Submitter)
}

// examine records one observed submission and ensures a dispute pipeline
// job is driving the window. It is shared by the live path (onSubmission)
// and recovery (RestoreWindow), and is idempotent: a submission that is
// already settled, already disputed, or already being driven by a pending
// job is left alone — that is what makes replay-after-restart unable to
// double-dispute.
func (w *Watchtower) examine(e *Watch, result, openedAt, deadline uint64, submitter types.Address) {
	// Honor Kill at sub-block granularity too: a "dead" tower must not
	// journal windows or file disputes for a block it was mid-way
	// through. (A dispute transaction already sent when Kill lands is a
	// tx-in-flight-at-crash — unavoidable, and recovery handles it via
	// the chain's settled flag.)
	if w.isHalted() {
		return
	}
	e.mu.Lock()
	if e.settled {
		e.mu.Unlock()
		return
	}
	e.window = &Window{
		Contract:  e.sess.OnChainAddr,
		Submitter: submitter,
		Result:    result,
		OpenedAt:  openedAt,
		Deadline:  deadline,
	}
	win := *e.window
	driven := e.disputed || e.pending
	if !driven {
		e.pending = true
	}
	e.mu.Unlock()
	if tr := w.spanTracer(); tr != nil && (e.id != 0 || e.tc.Valid()) {
		tr.EventChild(e.tc, e.id, "tower", "window_open", fmt.Sprintf("result=%d deadline=%d", result, deadline))
	}
	if j := w.jrnl(); j != nil && e.id != 0 {
		j.log(&store.Record{
			Kind: store.KindWindow, SID: e.id,
			U1: result, U2: openedAt, U3: deadline,
			Blob: submitter[:],
		})
	}
	if o := w.obs(); o != nil {
		o.WindowOpened(e, win)
	}
	if driven {
		return
	}
	w.mu.Lock()
	if w.stopped {
		// Too late to drive a pipeline job; undo the claim.
		w.mu.Unlock()
		e.mu.Lock()
		e.pending = false
		e.mu.Unlock()
		return
	}
	w.pending++
	w.mu.Unlock()
	w.pacerWG.Add(1)
	go w.driveDispute(e)
}

// releaseJob marks the watch's pipeline job decided and releases barrier
// waiters.
func (w *Watchtower) releaseJob(e *Watch) {
	e.mu.Lock()
	e.pending = false
	e.mu.Unlock()
	w.mu.Lock()
	w.pending--
	w.cond.Broadcast()
	w.mu.Unlock()
}

// refileLimit bounds how often one job re-drives a leaf dispute whose
// filing failed, and refileDelay spaces the attempts out.
const (
	refileLimit = 5
	refileDelay = 25 * time.Millisecond
)

// driveDispute is the pacer for one open window: it consults the gate
// until a final decision is reached, then funnels the expensive
// verify-and-file step through the bounded worker set. The job ends when
// the window settles, the gate stands down, or a filing completes. A
// failed leaf-dispute filing is re-driven (gate included) while its batch
// window is open, up to refileLimit times.
func (w *Watchtower) driveDispute(e *Watch) {
	defer w.pacerWG.Done()
	defer w.releaseJob(e)
	refiles := 0
	for {
		select {
		case <-w.haltCh:
			return // dead process files nothing
		case <-w.stopCh:
			return // graceful shutdown abandons undecided windows
		default:
		}
		win := e.OpenWindow()
		if win == nil {
			return // settled (or re-guarded) while we deliberated
		}
		decision, retry := GateFile, time.Duration(0)
		if g := w.disputeGate(); g != nil {
			decision, retry = g(e, *win)
		}
		switch decision {
		case GateStandDown:
			return
		case GateDefer:
			w.metrics.disputesDeferred.Inc()
			if retry <= 0 {
				retry = 10 * time.Millisecond
			}
			if !w.pause(e, retry) {
				return
			}
		case GateFile:
			w.sem <- struct{}{}
			failed := w.fileDispute(e, *win, refiles > 0)
			<-w.sem
			if !failed || !w.mayRefile(e, *win, refiles) {
				return
			}
			refiles++
			if !w.pause(e, refileDelay) {
				return
			}
		}
	}
}

// pause waits d before a job's next decision, waking early when the
// contract settles. It reports false when the tower halted or stopped
// meanwhile, which ends the job.
func (w *Watchtower) pause(e *Watch, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-e.settledChRef():
	case <-w.haltCh:
		return false
	case <-w.stopCh:
		return false
	}
	return true
}

// mayRefile decides whether a failed filing gets another attempt: only a
// leaf dispute (the registry's openedLeaves veto and the session
// contract's settled flag keep a re-drive exactly-once) whose batch
// window is still open, within refileLimit. A per-session dispute that
// failed stays failed, as before: the hub reports it rather than
// finalizing the lie.
func (w *Watchtower) mayRefile(e *Watch, win Window, refiles int) bool {
	e.mu.Lock()
	batch := e.rollup != nil
	e.mu.Unlock()
	return batch && refiles < refileLimit && w.chain.Now() <= win.Deadline
}

// dispute sends the session's dispute transactions, failing first if the
// test seam injects a fault.
func (w *Watchtower) dispute(e *Watch) error {
	if w.fileFault != nil {
		if err := w.fileFault(e); err != nil {
			return err
		}
	}
	_, _, err := e.sess.Dispute(e.honest)
	return err
}

func (e *Watch) settledChRef() chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.settledCh
}

// fileDispute is the decision point: verify the submission in the tower's
// own sandbox, veto against chain truth, claim, and file. Runs on a
// bounded worker slot. It reports failed when the dispute transactions
// themselves failed; refile marks a re-drive of this watch's own failed
// filing, which skips the claim (the dispute stays claimed, journaled and
// counted once) and goes straight back to the transactions.
func (w *Watchtower) fileDispute(e *Watch, win Window, refile bool) (failed bool) {
	expected, err := e.Expected()
	if err != nil || win.Result == expected {
		return false // cannot verify, or verified clean: nothing to file
	}
	// The chain, not the WAL, decides whether a dispute is still needed: a
	// dispute that landed has settled the contract, so a tower (restarted,
	// or a federation backup escalating behind a primary's in-flight
	// filing) re-examining the same lie stops here instead of
	// double-disputing. On a query error, fall through and file anyway — a
	// dispute against an already-settled contract merely reverts, while
	// skipping one lets a lie finalize, and nothing would ever re-examine
	// it.
	if settled, err := e.sess.IsSettled(); err == nil && settled {
		byDispute := len(w.chain.FilterLogs(chain.FilterQuery{Address: &e.sess.OnChainAddr, Topic: &hybrid.TopicDisputeResolved})) > 0
		w.onSettled(e, e.sess.OnChainAddr, byDispute)
		return false
	}
	// Claim the dispute under the lock so concurrent examinations (live
	// delivery racing a recovery replay) file at most once. Re-check the
	// crash flag at the last moment — after this point the dispute
	// transaction is as good as sent.
	if w.isHalted() {
		return false
	}
	disputeStart := time.Now()
	if !refile {
		e.mu.Lock()
		if e.disputed {
			e.mu.Unlock()
			return false
		}
		e.disputed = true
		e.disputedAt = w.chain.Now()
		e.deadline = win.Deadline
		e.mu.Unlock()
		// The submission lies about the off-chain outcome: file the
		// dispute now, while the window is provably still open. The
		// dispute deploys the verified instance from the signed copy and
		// has the miners recompute and enforce the true result.
		w.metrics.disputesRaised.Inc()
		if j := w.jrnl(); j != nil && e.id != 0 {
			j.log(&store.Record{Kind: store.KindDisputed, SID: e.id})
		}
		if o := w.obs(); o != nil {
			o.DisputeClaimed(e, e.sess.OnChainAddr)
		}
	}
	// Batch settlement: pin WHICH leaf of WHICH epoch this dispute refutes
	// by opening it against the posted root, then re-check the settled
	// flag — a revert usually means a peer's open won the race, and if
	// that peer's dispute already enforced, this one stops here.
	e.mu.Lock()
	rl := e.rollup
	e.mu.Unlock()
	if rl != nil {
		w.openLeaf(e, rl)
		if settled, err := e.sess.IsSettled(); err == nil && settled {
			w.onSettled(e, e.sess.OnChainAddr, true)
			if o := w.obs(); o != nil {
				o.DisputeFiled(e, e.sess.OnChainAddr, false)
			}
			return false
		}
	}
	if err := w.dispute(e); err != nil {
		if o := w.obs(); o != nil {
			o.DisputeFiled(e, e.sess.OnChainAddr, false)
		}
		return true
	}
	settled, err := e.sess.IsSettled()
	enforced := err == nil && settled
	if enforced {
		w.metrics.disputesWon.Inc()
		e.mu.Lock()
		e.disputeWon = true
		e.mu.Unlock()
		w.onSettled(e, e.sess.OnChainAddr, true)
	}
	if tr := w.spanTracer(); tr != nil && (e.id != 0 || e.tc.Valid()) {
		tr.RecordChild(e.tc, e.id, "tower", "dispute", disputeStart, time.Since(disputeStart), fmt.Sprintf("enforced=%t", enforced))
	}
	if o := w.obs(); o != nil {
		o.DisputeFiled(e, e.sess.OnChainAddr, enforced)
	}
	return false
}
