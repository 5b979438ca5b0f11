package hub

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/rollup"
)

// TestRollupBarrierPerWatch pins the per-watch barrier: in one epoch, a
// lying leaf's dispute is held undecided by a deferring gate, and the
// honest leaves of the same epoch still roll up — they wait on their own
// leaf's decision, not the whole tower's. The lying session resolves only
// after its dispute is enforced on chain.
func TestRollupBarrierPerWatch(t *testing.T) {
	for _, mode := range miningModes(t) {
		mode := mode
		t.Run("mining="+mode, func(t *testing.T) {
			const honest = 3
			c, net, faucetKey := miningWorld(t, mode)
			var release atomic.Bool
			var deferred atomic.Int64
			gate := func(e *Watch, w Window) (GateDecision, time.Duration) {
				if exp, err := e.Expected(); err == nil && exp == w.Result {
					return GateFile, 0 // honest leaves verify clean at once
				}
				if release.Load() {
					return GateFile, 0
				}
				deferred.Add(1)
				return GateDefer, 5 * time.Millisecond
			}
			// EpochCap equals the fleet size and EpochAge is far away, so
			// all four leaves ride one epoch.
			rc := &RollupConfig{Depth: 4, EpochCap: honest + 1, EpochAge: time.Minute}
			h := New(c, net, faucetKey, Config{Workers: honest + 1, Rollup: rc, DisputeGate: gate})
			defer h.Stop()
			// Runs before Stop: a failed check must not leave Stop waiting
			// on sessions parked behind the held dispute.
			defer release.Store(true)

			liar := h.Submit(BettingSpec(4, 600, true))
			var good []*Ticket
			for i := 0; i < honest; i++ {
				good = append(good, h.Submit(BettingSpec(4, 600, false)))
			}
			for _, tk := range good {
				select {
				case <-tk.Done():
				case <-time.After(30 * time.Second):
					t.Fatal("honest leaf did not roll up while another leaf's dispute was held")
				}
				rep := tk.Report()
				if rep.Err != nil || rep.Stage != StageRolledUp || rep.Disputed {
					t.Fatalf("honest session %d: stage=%s disputed=%t err=%v, want rolled-up", rep.ID, rep.Stage, rep.Disputed, rep.Err)
				}
			}
			// The liar's pacer may not have consulted the gate yet when the
			// honest leaves finish; it cannot file before release either way.
			waitFor(t, 10*time.Second, "the gate to hold the lying leaf's dispute", func() bool { return deferred.Load() > 0 })
			select {
			case <-liar.Done():
				t.Fatal("lying session terminated while its dispute decision was held")
			default:
			}
			if posted, _ := countRollupEvents(c); posted != 1 {
				t.Fatalf("epoch posts = %d, want the whole fleet in one epoch", posted)
			}

			release.Store(true)
			rep := liar.Report()
			if rep.Err != nil || rep.Stage != StageResolved || !rep.Disputed {
				t.Fatalf("lying session: stage=%s disputed=%t err=%v, want resolved/true", rep.Stage, rep.Disputed, rep.Err)
			}
			if raised, won := rep.Watch.Disputed(); !raised || !won {
				t.Errorf("lying session's watch raised/won = %t/%t, want an enforced dispute", raised, won)
			}
			if got := countEvents(c).resolved[rep.OnChainAddr]; got != 1 {
				t.Errorf("dispute resolutions = %d, want exactly 1", got)
			}
			if _, opened := countRollupEvents(c); opened != 1 {
				t.Errorf("leaves opened = %d, want exactly 1", opened)
			}
		})
	}
}

// TestRollupRefilesFailedDispute is the regression test for a lying leaf
// reported rolled-up: the first filing of its dispute fails, and the
// tower must re-drive it while the batch window is open, so the session
// ends resolved with exactly one enforced dispute.
func TestRollupRefilesFailedDispute(t *testing.T) {
	for _, mode := range miningModes(t) {
		mode := mode
		t.Run("mining="+mode, func(t *testing.T) {
			h, c, _ := newRollupHub(t, mode, 2, &RollupConfig{Depth: 4, EpochAge: 30 * time.Millisecond})
			var attempts atomic.Int64
			h.tower.fileFault = func(*Watch) error {
				if attempts.Add(1) == 1 {
					return errors.New("injected: dispute transaction failed")
				}
				return nil
			}
			rep := h.Submit(BettingSpec(4, 600, true)).Report()
			if rep.Err != nil {
				t.Fatalf("session failed: %v", rep.Err)
			}
			if rep.Stage != StageResolved || !rep.Disputed {
				t.Fatalf("stage=%s disputed=%t, want resolved/true", rep.Stage, rep.Disputed)
			}
			if n := attempts.Load(); n != 2 {
				t.Errorf("filing attempts = %d, want the failed one and one re-drive", n)
			}
			if got := countEvents(c).resolved[rep.OnChainAddr]; got != 1 {
				t.Errorf("dispute resolutions = %d, want exactly 1", got)
			}
			if _, opened := countRollupEvents(c); opened != 1 {
				t.Errorf("leaves opened = %d, want exactly 1", opened)
			}
			if m := h.Metrics(); m.DisputesRaised != 1 || m.DisputesWon != 1 {
				t.Errorf("disputes raised/won = %d/%d, want 1/1", m.DisputesRaised, m.DisputesWon)
			}
		})
	}
}

// TestRollupFailedDisputeNotRolledUp: a leaf dispute that never enforces
// (every filing fails) must fail the session, never report the lie as a
// clean roll-up.
func TestRollupFailedDisputeNotRolledUp(t *testing.T) {
	h, _, _ := newRollupHub(t, "auto", 2, &RollupConfig{Depth: 4, EpochAge: 30 * time.Millisecond})
	h.tower.fileFault = func(*Watch) error { return errors.New("injected: dispute transaction failed") }
	rep := h.Submit(BettingSpec(4, 600, true)).Report()
	if rep.Err == nil || rep.Stage == StageRolledUp {
		t.Fatalf("stage=%s err=%v: an unenforced lie must fail the session", rep.Stage, rep.Err)
	}
	if raised, won := rep.Watch.Disputed(); !raised || won {
		t.Errorf("watch raised/won = %t/%t, want a raised, unenforced dispute", raised, won)
	}
}

// inFlightSource serves the sequencer's epochs as they look before the
// post receipt lands: PostedAt not yet known.
type inFlightSource struct{ src rollup.Source }

func (s inFlightSource) EpochByNumber(n uint64) (*rollup.Epoch, bool) {
	ep, ok := s.src.EpochByNumber(n)
	if !ok {
		return nil, false
	}
	cp := *ep
	cp.PostedAt = 0
	return &cp, true
}

// TestRollupEventPathWindowDeadline: a tower that ingests an epoch from
// its EpochPosted log while the source still holds it in flight opens the
// leaf's window at the post's chain time, not at zero.
func TestRollupEventPathWindowDeadline(t *testing.T) {
	h, c, _ := newRollupHub(t, "auto", 2, &RollupConfig{Depth: 4, EpochAge: 30 * time.Millisecond})
	rep := h.Submit(BettingSpec(4, 600, false)).Report()
	if rep.Err != nil || rep.Stage != StageRolledUp {
		t.Fatalf("setup: stage=%s err=%v", rep.Stage, rep.Err)
	}
	reg, src := h.RollupHandles()
	postedAt, err := reg.PostedAt(rep.Session.Parties[0], 0)
	if err != nil || postedAt == 0 {
		t.Fatalf("registry postedAt(0) = %d, %v", postedAt, err)
	}

	w := NewWatchtower(c, nil)
	defer w.Stop()
	w.ArmRollup(reg, inFlightSource{src})
	watch, err := w.Guard(rep.Session, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	w.ReplayLogs(c.FilterLogs(chain.FilterQuery{Topic: &rollup.TopicEpochPosted}))
	win := watch.OpenWindow()
	if win == nil {
		t.Fatal("the EpochPosted event opened no window")
	}
	if win.OpenedAt != postedAt || win.Deadline != postedAt+reg.Window {
		t.Errorf("window opened %d deadline %d, want %d and %d", win.OpenedAt, win.Deadline, postedAt, postedAt+reg.Window)
	}
}
