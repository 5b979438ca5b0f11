package rollup

import (
	"context"
	"sync"
	"testing"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/store"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
)

// recordLog is a thread-safe WAL stand-in capturing sequencer records.
type recordLog struct {
	mu   sync.Mutex
	recs []*store.Record
}

func (r *recordLog) log(rec *store.Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := *rec
	r.recs = append(r.recs, &cp)
	return nil
}

func (r *recordLog) all() []*store.Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*store.Record{}, r.recs...)
}

func seqFixture(t *testing.T) (*chain.Chain, *hybrid.Participant) {
	t.Helper()
	key, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0x5EC0))
	c := chain.NewDefault(map[types.Address]*uint256.Int{
		types.Address(key.EthereumAddress()): eth(1000),
	})
	return c, hybrid.NewParticipant(key, c, nil)
}

func newSeq(t *testing.T, party *hybrid.Participant, cfg Config, wal *recordLog) *Sequencer {
	t.Helper()
	cfg.Party = party
	if wal != nil {
		cfg.Journal = wal.log
	}
	if cfg.Window == 0 {
		cfg.Window = 600
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSequencerBatchesLeaves(t *testing.T) {
	_, party := seqFixture(t)
	wal := &recordLog{}
	reg := telemetry.NewRegistry()
	s := newSeq(t, party, Config{Depth: 4, EpochAge: 30 * time.Millisecond, Telemetry: reg}, wal)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	leaves := mkLeaves(10)
	futs := make([]*Future, len(leaves))
	for i, l := range leaves {
		f, err := s.Enqueue(l, telemetry.TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	seen := map[uint64]bool{}
	for i, f := range futs {
		e, idx, err := f.Wait(ctx)
		if err != nil {
			t.Fatalf("leaf %d: %v", i, err)
		}
		if e.Leaves[idx].SID != leaves[i].SID {
			t.Fatalf("leaf %d resolved at wrong index", i)
		}
		proof, err := e.Tree.Proof(idx)
		if err != nil {
			t.Fatal(err)
		}
		if !VerifyProof(leaves[i], idx, proof, e.Root) {
			t.Fatalf("leaf %d: epoch proof does not verify", i)
		}
		seen[e.Number] = true
	}
	// All 10 arrived before the first age deadline: they must have been
	// batched into very few epochs (usually one), not one tx per session.
	if len(seen) > 3 {
		t.Fatalf("10 leaves spread over %d epochs — batching is broken", len(seen))
	}
	snap := reg.Snapshot()
	if snap["rollup_leaves_total"] != 10 {
		t.Fatalf("rollup_leaves_total = %v, want 10", snap["rollup_leaves_total"])
	}
	if snap["rollup_epochs_total"] == 0 || snap["rollup_post_gas_total"] == 0 {
		t.Fatalf("epoch/gas series not populated: %v", snap)
	}
	// Idempotent re-enqueue of an already-posted leaf resolves instantly.
	f, err := s.Enqueue(leaves[3], telemetry.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	if e, _, err := f.Wait(ctx); err != nil || !seen[e.Number] {
		t.Fatalf("re-enqueue: %v", err)
	}
}

func TestSequencerSealsAtCap(t *testing.T) {
	_, party := seqFixture(t)
	s := newSeq(t, party, Config{Depth: 3, EpochCap: 4, EpochAge: time.Hour}, nil)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	var futs []*Future
	for _, l := range mkLeaves(8) {
		f, err := s.Enqueue(l, telemetry.TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	epochs := map[uint64]int{}
	for _, f := range futs {
		e, _, err := f.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		epochs[e.Number]++
	}
	// EpochAge is an hour, so only the cap can have sealed: 8 leaves in
	// exactly 2 full epochs of 4.
	if len(epochs) != 2 {
		t.Fatalf("got %d epochs, want 2 (cap-sealed): %v", len(epochs), epochs)
	}
	for n, c := range epochs {
		if c != 4 {
			t.Fatalf("epoch %d has %d leaves, want 4", n, c)
		}
	}
}

// TestSequencerRecoversTornEpoch is the crash-consistency core: a WAL
// that says "sealed" but not "posted" must be reconciled against the
// chain — re-posted when the transaction never landed, NOT re-posted
// when it did (the double-post hazard).
func TestSequencerRecoversTornEpoch(t *testing.T) {
	_, party := seqFixture(t)
	wal := &recordLog{}
	s := newSeq(t, party, Config{Depth: 4, EpochAge: 20 * time.Millisecond}, wal)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	leaves := mkLeaves(3)
	var futs []*Future
	for _, l := range leaves {
		f, _ := s.Enqueue(l, telemetry.TraceContext{})
		futs = append(futs, f)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, f := range futs {
		if _, _, err := f.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	s.Halt()

	// Case 1 — "posted landed, crash before KindEpochPosted": drop the
	// posted record from the WAL. The recovered sequencer probes the
	// registry, sees epoch 0's root on chain, and must NOT post again.
	var torn []*store.Record
	for _, r := range wal.all() {
		if r.Kind == store.KindEpochPosted {
			continue
		}
		torn = append(torn, r)
	}
	s2 := newSeq(t, party, Config{Depth: 4, EpochAge: 20 * time.Millisecond}, &recordLog{})
	if err := s2.Seed(Fold(torn)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	if n, err := s2.Registry().Epochs(party); err != nil || n != 1 {
		t.Fatalf("after recovery, on-chain epochs = %d (%v), want 1 — double-post!", n, err)
	}
	// The recovered cache still serves the epoch for open batch windows.
	if e, ok := s2.EpochByNumber(0); !ok || len(e.Leaves) != 3 {
		t.Fatal("recovered sequencer lost epoch 0")
	}
	s2.Stop()

	// Case 2 — "crash between seal and post": append a sealed record the
	// chain never saw. Recovery must post exactly it, once.
	extra := mkLeaves(6)[3:]
	tree2, err := NewTree(4, extra)
	if err != nil {
		t.Fatal(err)
	}
	root2 := tree2.Root()
	blobs := make([][]byte, len(extra))
	for i, l := range extra {
		blobs[i] = encodeLeaf(l)
	}
	torn2 := append(wal.all(), &store.Record{
		Kind: store.KindEpochSealed, U1: 1, U2: uint64(len(extra)),
		Blob: root2[:], Blobs: blobs,
	})
	s3 := newSeq(t, party, Config{Depth: 4, EpochAge: 20 * time.Millisecond}, &recordLog{})
	if err := s3.Seed(Fold(torn2)); err != nil {
		t.Fatal(err)
	}
	if err := s3.Start(); err != nil {
		t.Fatal(err)
	}
	defer s3.Stop()
	if n, err := s3.Registry().Epochs(party); err != nil || n != 2 {
		t.Fatalf("torn epoch not re-posted: on-chain epochs = %d (%v), want 2", n, err)
	}
	if root, err := s3.Registry().RootOf(party, 1); err != nil || root != root2 {
		t.Fatalf("re-posted epoch root mismatch: %x", root)
	}
}

// TestSequencerReenqueuesPendingLeaves: leaves enqueued (KindEpochLeaf)
// but never sealed before the crash must flow into the next incarnation's
// first epoch.
func TestSequencerReenqueuesPendingLeaves(t *testing.T) {
	_, party := seqFixture(t)
	// Hand-craft a WAL: registry deployed by a live run, plus two orphan
	// leaves.
	wal := &recordLog{}
	boot := newSeq(t, party, Config{Depth: 4, EpochAge: time.Hour}, wal)
	if err := boot.Start(); err != nil { // deploys + journals the registry
		t.Fatal(err)
	}
	boot.Halt()
	leaves := mkLeaves(2)
	recs := wal.all()
	for _, l := range leaves {
		recs = append(recs, &store.Record{Kind: store.KindEpochLeaf, SID: l.SID, U1: l.Outcome, Blob: l.Contract[:]})
	}
	s := newSeq(t, party, Config{Depth: 4, EpochAge: 20 * time.Millisecond}, &recordLog{})
	if err := s.Seed(Fold(recs)); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	// The re-enqueued leaves post without anyone calling Enqueue; their
	// sessions re-attach by enqueueing again and resolve instantly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n, _ := s.Registry().Epochs(party); n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pending leaves never posted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	f, err := s.Enqueue(leaves[0], telemetry.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	if e, idx, err := f.Wait(ctx); err != nil || e.Leaves[idx].SID != leaves[0].SID {
		t.Fatalf("re-attach: %v", err)
	}
}

func TestFoldStateRoundTrip(t *testing.T) {
	_, party := seqFixture(t)
	wal := &recordLog{}
	s := newSeq(t, party, Config{Depth: 4, EpochAge: 20 * time.Millisecond}, wal)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	var futs []*Future
	for _, l := range mkLeaves(3) {
		f, _ := s.Enqueue(l, telemetry.TraceContext{})
		futs = append(futs, f)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, f := range futs {
		if _, _, err := f.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// StateRecords (the compaction snapshot contribution) must fold back
	// to the same durable state as the full WAL.
	fromWAL := Fold(wal.all())
	fromSnap := Fold(s.StateRecords())
	s.Stop()
	if fromWAL.Registry != fromSnap.Registry || fromWAL.PostedThru != fromSnap.PostedThru {
		t.Fatalf("snapshot fold diverges: %+v vs %+v", fromWAL, fromSnap)
	}
	if len(fromSnap.Pending) != 0 || len(fromSnap.Sealed) != 0 {
		t.Fatalf("clean shutdown left pending/sealed state: %+v", fromSnap)
	}
	if len(fromSnap.postedEpochs) != len(fromWAL.postedEpochs) {
		t.Fatalf("posted epochs lost in snapshot: %d vs %d", len(fromSnap.postedEpochs), len(fromWAL.postedEpochs))
	}
	// Eviction drops closed windows from snapshots.
	s.Evict(1000)
	if got := Fold(s.StateRecords()); len(got.postedEpochs) != 0 {
		t.Fatal("evicted epochs still in snapshot")
	}
}

// TestSeedRestoresPostedAt: a recovered sequencer serves its posted
// epochs with the chain time of their post, so the windows a recovered
// tower opens from them close at postedAt + Window.
func TestSeedRestoresPostedAt(t *testing.T) {
	c, party := seqFixture(t)
	c.AdvanceTime(1000) // a post at chain time 0 would hide a lost timestamp
	wal := &recordLog{}
	s := newSeq(t, party, Config{Depth: 4, EpochAge: 20 * time.Millisecond}, wal)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	f, err := s.Enqueue(mkLeaves(1)[0], telemetry.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	live, _, err := f.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s.Stop()
	if live.PostedAt == 0 {
		t.Fatal("fixture: live epoch has no post time")
	}

	s2 := newSeq(t, party, Config{Depth: 4, EpochAge: 20 * time.Millisecond}, &recordLog{})
	if err := s2.Seed(Fold(wal.all())); err != nil {
		t.Fatal(err)
	}
	got, ok := s2.EpochByNumber(live.Number)
	if !ok {
		t.Fatal("posted epoch missing after Seed")
	}
	if got.PostedAt != live.PostedAt {
		t.Errorf("recovered epoch postedAt = %d, want %d", got.PostedAt, live.PostedAt)
	}
}

func TestLeafCodec(t *testing.T) {
	for _, l := range mkLeaves(5) {
		got, ok := decodeLeaf(encodeLeaf(l))
		if !ok || got != l {
			t.Fatalf("leaf round-trip: %+v -> %+v", l, got)
		}
	}
	if _, ok := decodeLeaf([]byte{1, 2, 3}); ok {
		t.Fatal("short leaf decoded")
	}
}
