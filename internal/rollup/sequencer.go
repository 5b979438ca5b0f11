package rollup

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"onoffchain/internal/hybrid"
	"onoffchain/internal/store"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
)

// Config parameterizes a Sequencer.
type Config struct {
	// Party is the funded sequencer identity: it deploys the registry and
	// pays for every epoch post.
	Party *hybrid.Participant
	// Depth fixes the Merkle tree (and proof) depth; an epoch holds at
	// most 2^Depth leaves. Default 8 (256 leaves).
	Depth int
	// EpochCap seals an epoch as soon as it holds this many leaves.
	// Default 2^Depth, clamped to it.
	EpochCap int
	// EpochAge seals a partial epoch this long after its FIRST leaf
	// arrived: the liveness bound that keeps a trickle of sessions from
	// waiting forever for a full batch. Default 250ms.
	EpochAge time.Duration
	// Window is the batch challenge period in chain seconds: leaves can
	// be disputed (opened against the root) until postedAt + Window.
	Window uint64
	// DeployGas / PostGas bound the registry deployment and per-epoch
	// post transactions. Defaults 3_000_000 / 2_000_000.
	DeployGas, PostGas uint64
	// Journal, when set, makes epoch state durable: it receives every
	// rollup record BEFORE the action it describes (the hub passes its
	// WAL journal here, so epochs ride the session log).
	Journal func(*store.Record) error
	// OnEpoch runs after each epoch's post transaction is mined (the hub
	// feeds the watchtower; the federation gossips the epoch to backups).
	OnEpoch func(*Epoch)
	// Telemetry / Tracer are optional observability handles.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
	Logf      func(string, ...interface{})
}

// Epoch is one sealed-and-posted batch: everything needed to derive any
// leaf's Merkle proof during the batch challenge window.
type Epoch struct {
	Number   uint64
	Root     types.Hash
	Tree     *Tree
	Leaves   []Leaf
	PostedAt uint64 // chain time the registry recorded
	GasUsed  uint64 // actual gas of the post transaction
}

// Deadline returns the chain time the batch challenge window closes.
func (e *Epoch) Deadline(window uint64) uint64 { return e.PostedAt + window }

// Source hands out posted epochs by number — the seam between whoever
// holds the epoch data (the hub's sequencer, or a federation tower's
// gossip cache) and the watchtower that needs leaves + proofs to guard a
// batch.
type Source interface {
	// EpochByNumber returns the posted epoch, or false while unknown
	// (e.g. a tower that saw the chain event before the gossip arrived).
	EpochByNumber(n uint64) (*Epoch, bool)
}

// ticket is one session's pending leaf: resolved (done closed) when the
// epoch carrying it is posted on chain.
type ticket struct {
	leaf    Leaf
	tc      telemetry.TraceContext
	done    chan struct{}
	epoch   *Epoch // set before done closes
	index   int    // leaf index inside epoch
	err     error
	arrived time.Time
}

// Future is the caller's handle on an enqueued leaf.
type Future struct{ t *ticket }

// Wait blocks until the leaf's epoch posts (returning the epoch and the
// leaf's index in it) or ctx ends.
func (f *Future) Wait(ctx context.Context) (*Epoch, int, error) {
	select {
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	case <-f.t.done:
		return f.t.epoch, f.t.index, f.t.err
	}
}

// ErrHalted rejects enqueues after Stop/Halt and resolves tickets the
// sequencer abandoned mid-flight.
var ErrHalted = errors.New("rollup: sequencer halted")

type seqMetrics struct {
	epochs, leaves, postGas *telemetry.Counter
	hLeaves, hSeconds       *telemetry.Histogram
}

// Sequencer batches finished-session outcomes into epochs and posts one
// rollup transaction per epoch. One goroutine owns the seal/post cycle,
// so posts are serial (at most one in flight) — leaves arriving during a
// post's receipt wait accumulate into the next epoch, which is what makes
// batches form under load without any explicit batching delay.
type Sequencer struct {
	cfg      Config
	registry *Registry

	mu        sync.Mutex
	pending   []*ticket
	bySID     map[uint64]*ticket // every unresolved ticket, for idempotent re-enqueue
	epochs    map[uint64]*Epoch  // posted, by number
	inflight  map[uint64]*Epoch  // sealed, post receipt pending — already visible to Source
	nextEpoch uint64
	sealed    []*sealedState // folded sealed-but-maybe-unposted epochs to reconcile at Start
	halted    bool
	arrivedCh chan struct{} // pulsed when pending goes non-empty

	metrics seqMetrics

	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc
}

// sealedState is a folded KindEpochSealed awaiting on-chain
// reconciliation (posted or not?) at Start.
type sealedState struct {
	number uint64
	root   types.Hash
	leaves []Leaf
}

// New builds a sequencer. Call Seed (optionally) then Start.
func New(cfg Config) (*Sequencer, error) {
	if cfg.Party == nil {
		return nil, errors.New("rollup: sequencer needs a funded party")
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 8
	}
	if cfg.EpochCap <= 0 || cfg.EpochCap > 1<<cfg.Depth {
		cfg.EpochCap = 1 << cfg.Depth
	}
	if cfg.EpochAge <= 0 {
		cfg.EpochAge = 250 * time.Millisecond
	}
	if cfg.DeployGas == 0 {
		cfg.DeployGas = 3_000_000
	}
	if cfg.PostGas == 0 {
		cfg.PostGas = 2_000_000
	}
	if cfg.Logf == nil {
		cfg.Logf = telemetry.Default().Layer("rollup").Logf
	}
	s := &Sequencer{
		cfg:       cfg,
		bySID:     make(map[uint64]*ticket),
		epochs:    make(map[uint64]*Epoch),
		inflight:  make(map[uint64]*Epoch),
		arrivedCh: make(chan struct{}, 1),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	if reg := cfg.Telemetry; reg != nil {
		s.metrics = seqMetrics{
			epochs:   reg.Counter("rollup_epochs_total"),
			leaves:   reg.Counter("rollup_leaves_total"),
			postGas:  reg.Counter("rollup_post_gas_total"),
			hLeaves:  reg.Histogram("rollup_epoch_leaves", telemetry.SizeBuckets()),
			hSeconds: reg.Histogram("rollup_epoch_seconds", telemetry.DurationBuckets()),
		}
	}
	return s, nil
}

// Folded is the sequencer state a WAL record stream folds to; hub.Recover
// feeds it back through Seed so a restarted sequencer resumes exactly
// where the crash left it (modulo what the chain says actually landed).
type Folded struct {
	Registry     types.Address // zero: never deployed
	Window       uint64
	Depth        int
	Pending      map[uint64]Leaf // enqueued, not in any sealed epoch
	Sealed       []*sealedState  // sealed; posted-or-not decided on chain
	PostedThru   uint64          // next epoch number after the highest posted
	postedEpochs map[uint64]*sealedState
}

// Fold extracts rollup sequencer state from a WAL record stream. Records
// of other subsystems are ignored, so the hub can pass its whole replay.
func Fold(recs []*store.Record) *Folded {
	f := &Folded{Pending: map[uint64]Leaf{}, postedEpochs: map[uint64]*sealedState{}}
	sealedBySID := map[uint64]bool{}
	var sealed []*sealedState
	posted := map[uint64]bool{}
	for _, rec := range recs {
		switch rec.Kind {
		case store.KindRollupRegistry:
			f.Registry = types.BytesToAddress(rec.Blob)
			f.Window = rec.U1
			f.Depth = int(rec.U2)
		case store.KindEpochLeaf:
			f.Pending[rec.SID] = Leaf{SID: rec.SID, Contract: types.BytesToAddress(rec.Blob), Outcome: rec.U1}
		case store.KindEpochSealed:
			ss := &sealedState{number: rec.U1, root: types.BytesToHash(rec.Blob)}
			for _, b := range rec.Blobs {
				if l, ok := decodeLeaf(b); ok {
					ss.leaves = append(ss.leaves, l)
					sealedBySID[l.SID] = true
				}
			}
			sealed = append(sealed, ss)
		case store.KindEpochPosted:
			posted[rec.U1] = true
			if rec.U1+1 > f.PostedThru {
				f.PostedThru = rec.U1 + 1
			}
		}
	}
	for sid := range f.Pending {
		if sealedBySID[sid] {
			delete(f.Pending, sid)
		}
	}
	for _, ss := range sealed {
		if posted[ss.number] {
			f.postedEpochs[ss.number] = ss
			continue
		}
		f.Sealed = append(f.Sealed, ss)
	}
	return f
}

// Seed installs folded state. Must run before Start.
func (s *Sequencer) Seed(f *Folded) error {
	if f == nil {
		return nil
	}
	if !f.Registry.IsZero() {
		if f.Depth != s.cfg.Depth {
			return fmt.Errorf("rollup: journaled registry depth %d, configured %d", f.Depth, s.cfg.Depth)
		}
		reg, err := OpenRegistry(f.Registry, f.Depth, f.Window)
		if err != nil {
			return err
		}
		s.registry = reg
	}
	// Posted epochs re-enter the in-memory cache so the watchtower's
	// Source keeps serving proofs for still-open batch windows. The WAL
	// does not carry a post's chain time, so it is read back from the
	// registry: a window must close at postedAt + Window, not at Window.
	posted := make(map[uint64]*Epoch, len(f.postedEpochs))
	for n, ss := range f.postedEpochs {
		tree, err := NewTree(s.cfg.Depth, ss.leaves)
		if err != nil {
			continue
		}
		e := &Epoch{Number: n, Root: ss.root, Tree: tree, Leaves: ss.leaves}
		if s.registry != nil {
			if e.PostedAt, err = s.registry.PostedAt(s.cfg.Party, n); err != nil {
				return fmt.Errorf("rollup: probing posted epoch %d: %w", n, err)
			}
		}
		posted[n] = e
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextEpoch = f.PostedThru
	s.sealed = f.Sealed
	for n, e := range posted {
		s.epochs[n] = e
	}
	for _, l := range f.Pending {
		s.enqueueLocked(l, telemetry.TraceContext{}, false)
	}
	return nil
}

// Start deploys the registry (or probes the seeded one), reconciles any
// sealed-but-maybe-unposted epochs against the chain — posting exactly
// the ones that never landed — and launches the seal loop.
func (s *Sequencer) Start() error {
	if s.registry == nil {
		reg, err := DeployRegistry(s.cfg.Party, s.cfg.Depth, s.cfg.Party.Addr, s.cfg.Window, s.cfg.DeployGas)
		if err != nil {
			return err
		}
		s.registry = reg
		if err := s.journal(&store.Record{
			Kind: store.KindRollupRegistry, Blob: reg.Addr[:],
			U1: s.cfg.Window, U2: uint64(s.cfg.Depth),
		}); err != nil {
			return err
		}
	}
	// Torn-epoch reconciliation: a KindEpochSealed without KindEpochPosted
	// means the crash hit between seal and receipt. The CHAIN decides
	// whether the post landed — rootOf(n) matching the sealed root means
	// it did (only this sequencer's key can post, so no other writer
	// exists) and re-posting would double-settle the batch; anything else
	// means the epoch never landed and is re-posted now.
	s.mu.Lock()
	sealed := s.sealed
	s.sealed = nil
	s.mu.Unlock()
	for _, ss := range sealed {
		onChain, err := s.registry.RootOf(s.cfg.Party, ss.number)
		if err != nil {
			return fmt.Errorf("rollup: probing sealed epoch %d: %w", ss.number, err)
		}
		tree, err := NewTree(s.cfg.Depth, ss.leaves)
		if err != nil || tree.Root() != ss.root {
			return fmt.Errorf("rollup: sealed epoch %d does not re-fold to its journaled root", ss.number)
		}
		if onChain == ss.root {
			s.cfg.Logf("rollup: sealed epoch %d already on chain, not re-posting", ss.number)
			if err := s.journal(&store.Record{Kind: store.KindEpochPosted, U1: ss.number, Blob: ss.root[:]}); err != nil {
				return err
			}
			s.finishEpoch(ss.number, tree, ss.leaves, 0, time.Time{})
			continue
		}
		s.cfg.Logf("rollup: re-posting torn epoch %d (%d leaves)", ss.number, len(ss.leaves))
		s.mu.Lock()
		s.inflight[ss.number] = &Epoch{Number: ss.number, Root: ss.root, Tree: tree, Leaves: ss.leaves}
		s.mu.Unlock()
		if err := s.post(ss.number, tree, ss.leaves, time.Now()); err != nil {
			return fmt.Errorf("rollup: re-posting epoch %d: %w", ss.number, err)
		}
	}
	s.wg.Add(1)
	go s.loop()
	return nil
}

// Registry exposes the deployed registry handle (nil before Start).
func (s *Sequencer) Registry() *Registry { return s.registry }

// Window returns the batch challenge period.
func (s *Sequencer) Window() uint64 { return s.cfg.Window }

// EpochByNumber implements Source over the sequencer's posted epochs.
// Sealed epochs whose post receipt is still pending are served too: the
// watchtower's block loop can observe the EpochPosted event before the
// sequencer's own receipt wait returns, and it must find the leaves then.
func (s *Sequencer) EpochByNumber(n uint64) (*Epoch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.epochs[n]; ok {
		return e, true
	}
	e, ok := s.inflight[n]
	return e, ok
}

// Enqueue registers a finished session's outcome for the next epoch and
// returns a future resolving when its batch posts. Idempotent per SID:
// a recovered session re-enqueueing its leaf gets the live ticket (or,
// if the leaf already posted, an immediately-resolved one).
func (s *Sequencer) Enqueue(leaf Leaf, tc telemetry.TraceContext) (*Future, error) {
	if f, err, settled := s.tryResolve(leaf); settled {
		return f, err
	}
	// Journal OUTSIDE the sequencer lock: the hub's compaction holds the
	// journal lock while collecting StateRecords (journal → sequencer lock
	// order), so journaling under s.mu would invert it. Two racing first
	// enqueues of the same SID may both write KindEpochLeaf; Fold is
	// idempotent per SID, and the loser adopts the winner's ticket below.
	if err := s.journal(&store.Record{
		Kind: store.KindEpochLeaf, SID: leaf.SID,
		U1: leaf.Outcome, Blob: leaf.Contract[:],
	}); err != nil {
		return nil, err
	}
	if f, err, settled := s.tryResolve(leaf); settled {
		return f, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.halted {
		return nil, ErrHalted
	}
	if t := s.bySID[leaf.SID]; t != nil {
		return &Future{t: t}, nil
	}
	t := s.enqueueLocked(leaf, tc, true)
	return &Future{t: t}, nil
}

// tryResolve covers the no-journal-needed cases: halted, an existing live
// ticket for the SID, or a leaf already inside a posted epoch (re-enqueue
// after recovery) which resolves immediately.
func (s *Sequencer) tryResolve(leaf Leaf) (*Future, error, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.halted {
		return nil, ErrHalted, true
	}
	if t := s.bySID[leaf.SID]; t != nil {
		return &Future{t: t}, nil, true
	}
	for _, e := range s.epochs {
		for i, l := range e.Leaves {
			if l.SID == leaf.SID {
				t := &ticket{leaf: l, done: make(chan struct{}), epoch: e, index: i}
				close(t.done)
				return &Future{t: t}, nil, true
			}
		}
	}
	return nil, nil, false
}

func (s *Sequencer) enqueueLocked(leaf Leaf, tc telemetry.TraceContext, trace bool) *ticket {
	t := &ticket{leaf: leaf, tc: tc, done: make(chan struct{}), arrived: time.Now()}
	s.pending = append(s.pending, t)
	s.bySID[leaf.SID] = t
	if trace && s.cfg.Tracer != nil && tc.Valid() {
		s.cfg.Tracer.EventChild(tc, leaf.SID, "rollup", "leaf_enqueued", "")
	}
	select {
	case s.arrivedCh <- struct{}{}:
	default:
	}
	return t
}

// loop is the seal/post cycle: wait for a first leaf, then seal when the
// cap fills or the age deadline passes — the age timer guarantees a
// partial epoch always posts, so a worker waiting on its leaf's future
// can never deadlock the pipeline it feeds.
func (s *Sequencer) loop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-s.arrivedCh:
		}
		// A first leaf is in. Grow the batch until cap or age.
		deadline := time.NewTimer(s.cfg.EpochAge)
		grow := true
		for grow {
			s.mu.Lock()
			full := len(s.pending) >= s.cfg.EpochCap
			s.mu.Unlock()
			if full {
				break
			}
			select {
			case <-s.ctx.Done():
				deadline.Stop()
				return
			case <-deadline.C:
				grow = false
			case <-s.arrivedCh:
			}
		}
		deadline.Stop()
		if err := s.sealAndPost(); err != nil {
			s.cfg.Logf("rollup: epoch post failed: %v", err)
			s.abort(err)
			return
		}
	}
}

// sealAndPost cuts the current batch into an epoch: WAL the sealed epoch
// BEFORE the transaction (tearing recovery's anchor), post, WAL the
// landing, resolve the leaf futures.
func (s *Sequencer) sealAndPost() error {
	s.mu.Lock()
	n := len(s.pending)
	if n == 0 {
		s.mu.Unlock()
		return nil
	}
	if n > s.cfg.EpochCap {
		n = s.cfg.EpochCap
	}
	batch := s.pending[:n:n]
	s.pending = append([]*ticket{}, s.pending[n:]...)
	if len(s.pending) > 0 {
		select {
		case s.arrivedCh <- struct{}{}:
		default:
		}
	}
	number := s.nextEpoch
	s.nextEpoch++
	s.mu.Unlock()

	leaves := make([]Leaf, n)
	blobs := make([][]byte, n)
	first := batch[0].arrived
	for i, t := range batch {
		leaves[i] = t.leaf
		blobs[i] = encodeLeaf(t.leaf)
		if t.arrived.Before(first) {
			first = t.arrived
		}
	}
	tree, err := NewTree(s.cfg.Depth, leaves)
	if err != nil {
		return err
	}
	root := tree.Root()
	if err := s.journal(&store.Record{
		Kind: store.KindEpochSealed, U1: number, U2: uint64(n),
		Blob: root[:], Blobs: blobs,
	}); err != nil {
		return err
	}
	s.mu.Lock()
	s.inflight[number] = &Epoch{Number: number, Root: root, Tree: tree, Leaves: leaves}
	s.mu.Unlock()
	return s.post(number, tree, leaves, first)
}

// post lands one epoch on chain and resolves its tickets.
func (s *Sequencer) post(number uint64, tree *Tree, leaves []Leaf, first time.Time) error {
	start := time.Now()
	rec, err := s.registry.PostEpoch(s.cfg.Party, tree.Root(), uint64(len(leaves)), s.cfg.PostGas)
	if err != nil {
		return err
	}
	root := tree.Root()
	if err := s.journal(&store.Record{Kind: store.KindEpochPosted, U1: number, Blob: root[:]}); err != nil {
		return err
	}
	if s.metrics.epochs != nil {
		s.metrics.epochs.Inc()
		s.metrics.leaves.Add(uint64(len(leaves)))
		s.metrics.postGas.Add(rec.GasUsed)
		s.metrics.hLeaves.Observe(float64(len(leaves)))
		if !first.IsZero() {
			s.metrics.hSeconds.Observe(time.Since(first).Seconds())
		}
	}
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Record(0, "rollup", "post_epoch", start, time.Since(start),
			fmt.Sprintf("epoch=%d leaves=%d gas=%d", number, len(leaves), rec.GasUsed))
	}
	s.finishEpoch(number, tree, leaves, rec.GasUsed, start)
	return nil
}

// finishEpoch records the posted epoch, resolves tickets, and runs the
// OnEpoch hook.
func (s *Sequencer) finishEpoch(number uint64, tree *Tree, leaves []Leaf, gasUsed uint64, start time.Time) {
	postedAt, err := s.registry.PostedAt(s.cfg.Party, number)
	if err != nil {
		s.cfg.Logf("rollup: postedAt(%d) probe failed: %v", number, err)
	}
	e := &Epoch{Number: number, Root: tree.Root(), Tree: tree, Leaves: leaves, PostedAt: postedAt, GasUsed: gasUsed}
	index := make(map[uint64]int, len(leaves))
	for i, l := range leaves {
		index[l.SID] = i
	}
	s.mu.Lock()
	delete(s.inflight, number)
	s.epochs[number] = e
	// Chain time is monotonic, so any cached epoch whose window closed
	// before THIS post's timestamp can no longer be opened — evict it to
	// bound the proof cache (and the compaction snapshot it feeds).
	if w := s.cfg.Window; w > 0 && postedAt > 0 {
		for n, old := range s.epochs {
			if old.PostedAt > 0 && old.PostedAt+w < postedAt {
				delete(s.epochs, n)
			}
		}
	}
	var resolve []*ticket
	for sid, t := range s.bySID {
		if i, ok := index[sid]; ok {
			t.epoch, t.index = e, i
			resolve = append(resolve, t)
			delete(s.bySID, sid)
		}
	}
	s.mu.Unlock()
	for _, t := range resolve {
		if s.cfg.Tracer != nil && t.tc.Valid() {
			s.cfg.Tracer.EventChild(t.tc, t.leaf.SID, "rollup", "leaf_posted", fmt.Sprintf("epoch=%d", number))
		}
		close(t.done)
	}
	if s.cfg.OnEpoch != nil {
		s.cfg.OnEpoch(e)
	}
}

// abort poisons the sequencer: every unresolved ticket fails, later
// enqueues are rejected.
func (s *Sequencer) abort(err error) {
	s.mu.Lock()
	s.halted = true
	var open []*ticket
	for sid, t := range s.bySID {
		t.err = fmt.Errorf("%w: %v", ErrHalted, err)
		open = append(open, t)
		delete(s.bySID, sid)
	}
	s.pending = nil
	s.mu.Unlock()
	for _, t := range open {
		close(t.done)
	}
}

// Stop winds the sequencer down. Pending (unsealed) leaves resolve with
// ErrHalted — on a clean shutdown the hub drains workers first, so there
// are none; on a crash the WAL carries them into the next incarnation.
func (s *Sequencer) Stop() {
	s.cancel()
	s.wg.Wait()
	s.abort(errors.New("stopped"))
}

// Halt simulates the sequencer dying mid-flight: the loop stops, tickets
// stay unresolved (their sessions are crashing too), and the journal is
// left exactly as-is for recovery.
func (s *Sequencer) Halt() {
	s.mu.Lock()
	s.halted = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
}

// StateRecords synthesizes the record stream that re-folds to the
// sequencer's durable state — the hub appends it to compaction snapshots
// so WAL compaction cannot lose epoch state. Posted epochs are carried
// while cached (their batch windows may still be open); the set is
// bounded by epochs-per-challenge-window at steady state because Evict
// drops closed windows.
func (s *Sequencer) StateRecords() []*store.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*store.Record
	if s.registry != nil {
		out = append(out, &store.Record{
			Kind: store.KindRollupRegistry, Blob: s.registry.Addr[:],
			U1: s.cfg.Window, U2: uint64(s.cfg.Depth),
		})
	}
	for _, t := range s.bySID {
		out = append(out, &store.Record{
			Kind: store.KindEpochLeaf, SID: t.leaf.SID,
			U1: t.leaf.Outcome, Blob: t.leaf.Contract[:],
		})
	}
	// In-flight epochs are sealed but their post receipt has not landed:
	// snapshot them WITHOUT a posted record, so a recovery folded from this
	// snapshot re-runs the chain probe exactly as the raw WAL would.
	for _, e := range s.inflight {
		out = append(out, sealedRecord(e))
	}
	for _, e := range s.epochs {
		root := e.Root
		out = append(out, sealedRecord(e),
			&store.Record{Kind: store.KindEpochPosted, U1: e.Number, Blob: root[:]})
	}
	return out
}

// CachedEpochs returns every posted epoch still in the proof cache, in
// epoch order. Recovery feeds these back through the watchtower so batch
// windows that opened before the crash are re-examined with full leaf
// context (epoch number, index, proof) — the per-session RestoreWindow
// path cannot reconstruct that from a KindWindow record alone.
func (s *Sequencer) CachedEpochs() []*Epoch {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Epoch, 0, len(s.epochs))
	for _, e := range s.epochs {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Number < out[j].Number })
	return out
}

// Evict drops posted epochs numbered below n from the in-memory cache
// (their challenge windows closed; proofs are no longer needed).
func (s *Sequencer) Evict(below uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for n := range s.epochs {
		if n < below {
			delete(s.epochs, n)
		}
	}
}

func (s *Sequencer) journal(rec *store.Record) error {
	if s.cfg.Journal == nil {
		return nil
	}
	return s.cfg.Journal(rec)
}

func sealedRecord(e *Epoch) *store.Record {
	blobs := make([][]byte, len(e.Leaves))
	for i, l := range e.Leaves {
		blobs[i] = encodeLeaf(l)
	}
	root := e.Root
	return &store.Record{Kind: store.KindEpochSealed, U1: e.Number, U2: uint64(len(e.Leaves)), Blob: root[:], Blobs: blobs}
}

// encodeLeaf packs a leaf as sid(8) ‖ contract(20) ‖ outcome(8).
func encodeLeaf(l Leaf) []byte {
	b := make([]byte, 36)
	putBE64(b[0:8], l.SID)
	copy(b[8:28], l.Contract[:])
	putBE64(b[28:36], l.Outcome)
	return b
}

func decodeLeaf(b []byte) (Leaf, bool) {
	if len(b) != 36 {
		return Leaf{}, false
	}
	return Leaf{
		SID:      be64(b[0:8]),
		Contract: types.BytesToAddress(b[8:28]),
		Outcome:  be64(b[28:36]),
	}, true
}

func putBE64(dst []byte, v uint64) {
	for i := 0; i < 8; i++ {
		dst[7-i] = byte(v >> (8 * i))
	}
}

func be64(b []byte) uint64 {
	v := uint64(0)
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}
