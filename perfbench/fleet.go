package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/federation"
	"onoffchain/internal/hub"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/store"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/whisper"
)

// inFlight is the closed loop's client count: the generator keeps exactly
// this many sessions submitted and not yet done. The hub gets as many
// workers, so no session queues inside the hub and latency is service
// time.
const inFlight = 64

// fleet is one chain, hub and tower set, built through the public API the
// way an operator would wire it.
type fleet struct {
	w      *workload
	chain  *chain.Chain
	hub    *hub.Hub
	towers []*federation.Tower // federated workloads; towers[0] is the hub's
	store  *store.Store
	walDir string
	reg    *telemetry.Registry // traced fleets only
	spans  *spanLog            // traced fleets only
	warm   []session           // set-up sessions: verified, never measured
}

// session is one submitted session as the closed loop saw it.
type session struct {
	lie          bool
	submit, done time.Time
	trace        telemetry.TraceContext
	rep          *hub.Report
}

func (s *session) latency() time.Duration { return s.done.Sub(s.submit) }

// spanLog collects every span a traced fleet records, in memory, through
// the tracer's tee.
type spanLog struct {
	mu    sync.Mutex
	spans []telemetry.Span
}

func (l *spanLog) record(s telemetry.Span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) all() []telemetry.Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]telemetry.Span(nil), l.spans...)
}

func scalarKey(x uint64) *secp256k1.PrivateKey {
	k, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(x))
	if err != nil {
		panic(err) // small non-zero constants are always valid scalars
	}
	return k
}

// newFleet builds and warms a fleet: chain genesis, the hub (its shard
// keys and, for rollup settlement, the registry deploy), the WAL, the
// tower joins, and one honest session per scenario so every split cache
// is full before measuring. All of it is the benchmark's set-up time.
func newFleet(w *workload, traced bool) (f *fleet, err error) {
	f = &fleet{w: w}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	var tracer *telemetry.Tracer
	if traced {
		f.reg = telemetry.NewRegistry()
		f.spans = &spanLog{}
		tracer = telemetry.NewTracer(0)
		tracer.Tee(f.spans.record)
	}
	faucet := scalarKey(0xFA0CE7)
	ccfg := chain.DefaultConfig()
	ccfg.Telemetry = f.reg
	ccfg.Tracer = tracer
	ccfg.AutoMine = !w.batch
	f.chain = chain.New(ccfg, map[types.Address]*uint256.Int{
		types.Address(faucet.EthereumAddress()): new(uint256.Int).Mul(uint256.NewInt(100_000_000), uint256.NewInt(1e18)),
	})
	if w.batch {
		if err := f.chain.StartMining(mineIntervalMS*time.Millisecond, mineBatch); err != nil {
			return f, err
		}
	}
	net := whisper.NewNetwork(f.chain.Now)
	cfg := hub.Config{Workers: inFlight, Telemetry: f.reg, Tracer: tracer}
	if w.rollup {
		cfg.Rollup = &hub.RollupConfig{Depth: rollupDepth, EpochAge: mineIntervalMS * time.Millisecond}
	}
	if w.wal {
		if f.walDir, err = os.MkdirTemp("", "perfbench-wal-"); err != nil {
			return f, err
		}
		if f.store, err = store.Open(f.walDir, store.Options{Telemetry: f.reg}); err != nil {
			return f, err
		}
		cfg.Store = f.store
	}
	f.hub = hub.New(f.chain, net, faucet, cfg)
	if w.towers > 1 {
		keys := make([]*secp256k1.PrivateKey, w.towers)
		members := make([]types.Address, w.towers)
		for i := range keys {
			keys[i] = scalarKey(uint64(0x70_3E_00 + i))
			members[i] = types.Address(keys[i].EthereumAddress())
		}
		registry := w.registry()
		member := func(k *secp256k1.PrivateKey) federation.Config {
			return federation.Config{
				Chain: f.chain, Net: net, Key: k, Members: members, Registry: registry,
				SignGossip: true, Telemetry: f.reg, Tracer: tracer,
				Logf: func(string, ...interface{}) {},
			}
		}
		t, err := federation.AttachHub(f.hub, member(keys[0]))
		if err != nil {
			return f, fmt.Errorf("attach hub tower: %w", err)
		}
		f.towers = append(f.towers, t)
		for _, k := range keys[1:] {
			t, err := federation.Join(member(k))
			if err != nil {
				return f, fmt.Errorf("join tower: %w", err)
			}
			f.towers = append(f.towers, t)
		}
	}
	for _, sc := range w.scenarios {
		rep := f.hub.Submit(sc.honest).Report()
		if rep.Err != nil {
			return f, fmt.Errorf("warm-up session %s: %w", rep.Scenario, rep.Err)
		}
		f.warm = append(f.warm, session{rep: rep})
	}
	return f, nil
}

// stop winds the fleet down: hub first (draining its workers), then the
// towers, then the mining loop the drained receipt waits needed, then
// the WAL.
func (f *fleet) stop() {
	if f.hub != nil {
		f.hub.Stop()
	}
	for _, t := range f.towers {
		t.Stop()
	}
	if f.chain != nil {
		f.chain.StopMining()
	}
	if f.store != nil {
		f.store.Close()
	}
	if f.walDir != "" {
		os.RemoveAll(f.walDir)
	}
}

// disputeTotals are the fleet-wide tower counters: filings, enforced
// wins, owner vouches honored by backups, and signed-gossip rejections.
type disputeTotals struct {
	filed, won, vouched, sigRejected uint64
}

func (f *fleet) disputeTotals() disputeTotals {
	if len(f.towers) == 0 {
		m := f.hub.Metrics()
		return disputeTotals{filed: m.DisputesRaised, won: m.DisputesWon}
	}
	var d disputeTotals
	for _, t := range f.towers {
		m := t.Metrics()
		d.filed += m.DisputesFiled
		d.won += m.DisputesWon
		d.vouched += m.VouchesHonored
		d.sigRejected += m.SigRejected
	}
	return d
}

// phase is one measured closed-loop run and what the process and chain
// did during it.
type phase struct {
	sessions []session // measured sessions, in submission order
	// start is the first measured Submit, end the last Done.
	start, end          time.Time
	cpu                 time.Duration // process user+sys CPU over [start, end]
	gas, blocks         uint64        // of the blocks sealed over [start, end]
	mallocs             uint64
	regBefore, regAfter map[string]float64 // traced fleets only
	towersBefore        disputeTotals
	towersAfter         disputeTotals
}

// drive runs the closed loop for dur: submit specs in order, exactly
// inFlight at a time, each new one when a Done fires, until the deadline;
// then wait for every submitted session to finish.
func (f *fleet) drive(specs []*hub.Spec, dur time.Duration) (*phase, error) {
	p := &phase{sessions: make([]session, len(specs))}
	done := make(chan struct{}, inFlight) // one slot per session in flight
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs
	p.regBefore = f.reg.Snapshot()
	p.towersBefore = f.disputeTotals()
	h0 := f.chain.Height()
	cpu0 := processCPU()

	next := 0
	submit := func() {
		s := &p.sessions[next]
		s.lie = specs[next].Adversarial
		s.submit = time.Now()
		t := f.hub.Submit(specs[next])
		s.trace = t.TraceCtx()
		next++
		go func() {
			<-t.Done()
			s.done = time.Now()
			s.rep = t.Report()
			done <- struct{}{}
		}()
	}
	p.start = time.Now()
	deadline := p.start.Add(dur)
	for next < inFlight && next < len(specs) {
		submit()
	}
	for pending := next; pending > 0; pending-- {
		<-done
		if time.Now().Before(deadline) {
			if next == len(specs) {
				return nil, errors.New("generated session list exhausted before the deadline")
			}
			submit()
			pending++
		}
	}
	for i := range p.sessions[:next] {
		if p.sessions[i].done.After(p.end) {
			p.end = p.sessions[i].done
		}
	}
	p.sessions = p.sessions[:next]

	p.cpu = processCPU() - cpu0
	h1 := f.chain.Height()
	for n := h0 + 1; n <= h1; n++ {
		b, err := f.chain.BlockByNumber(n)
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", n, err)
		}
		p.gas += b.Header.GasUsed
	}
	p.blocks = h1 - h0
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs - p.mallocs
	p.regAfter = f.reg.Snapshot()
	p.towersAfter = f.disputeTotals()
	return p, nil
}

// verify is the correctness gate over every session the fleet ran, set-up
// sessions included. A session that reported an error is counted as
// failed, not checked further; any other departure from the protocol's
// outcome is a violation. Each session is checked against its own
// unanimous off-chain result, because party keys (and with them the
// addr-seeded outcome) depend on worker scheduling.
func (f *fleet) verify(measured []session) (failed int, err error) {
	lies := 0
	all := append(append([]session(nil), f.warm...), measured...)
	for i := range all {
		s := &all[i]
		rep := s.rep
		switch {
		case rep.Err != nil:
			failed++
			continue
		case s.lie:
			lies++
			if rep.Stage != hub.StageResolved || !rep.Disputed || rep.Submitted == rep.Result {
				return failed, fmt.Errorf("lying session %d (%s) ended %s, disputed=%t, submitted %d, result %d",
					rep.ID, rep.Scenario, rep.Stage, rep.Disputed, rep.Submitted, rep.Result)
			}
		default:
			if (rep.Stage != hub.StageSettled && rep.Stage != hub.StageRolledUp) || rep.Disputed || rep.Submitted != rep.Result {
				return failed, fmt.Errorf("honest session %d (%s) ended %s, disputed=%t, submitted %d, result %d",
					rep.ID, rep.Scenario, rep.Stage, rep.Disputed, rep.Submitted, rep.Result)
			}
		}
	}
	// A federated tower counts its win when its own receipt resolves,
	// which can trail the session owner seeing the contract settle; give
	// the counters a bounded moment to catch up before comparing.
	d := f.disputeTotals()
	for wait := time.Now().Add(5 * time.Second); d.won < uint64(lies) && time.Now().Before(wait); d = f.disputeTotals() {
		time.Sleep(10 * time.Millisecond)
	}
	if d.won != uint64(lies) || d.filed < d.won {
		return failed, fmt.Errorf("towers filed %d and won %d disputes for %d lying sessions", d.filed, d.won, lies)
	}
	if n := f.hub.Metrics().IllegalTransitions; n != 0 {
		return failed, fmt.Errorf("%d illegal lifecycle transitions", n)
	}
	return failed, nil
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's resident-set high-water mark in MiB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
