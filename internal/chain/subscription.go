package chain

import (
	"sync"

	"onoffchain/internal/types"
)

// Push-based event delivery, the counterpart of the poll-only
// FilterLogs/FilterQuery API: a subscription receives every matching log
// (or per-block batch of them) mined after the subscription was taken, in
// chain order. Delivery is decoupled from mining by an unbounded
// per-subscription queue and a pump goroutine, so a slow consumer can
// never stall block production or other subscribers.

// LogSubscription streams logs matching a filter as blocks are mined.
type LogSubscription struct {
	c  *Chain
	id uint64
	q  FilterQuery

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*types.Log
	closed bool

	quit chan struct{}
	out  chan *types.Log
}

// SubscribeLogs registers a push subscription for logs matching q's
// Address/Topic selectors. The FromBlock/ToBlock range fields are ignored:
// a subscription always starts at the next mined block (use FilterLogs for
// history). The channel is closed by Unsubscribe.
func (c *Chain) SubscribeLogs(q FilterQuery) *LogSubscription {
	s := &LogSubscription{
		c:    c,
		q:    q,
		quit: make(chan struct{}),
		out:  make(chan *types.Log, 64),
	}
	s.cond = sync.NewCond(&s.mu)
	c.mu.Lock()
	c.subID++
	s.id = c.subID
	if c.logSubs == nil {
		c.logSubs = make(map[uint64]*LogSubscription)
	}
	c.logSubs[s.id] = s
	c.mu.Unlock()
	go s.pump()
	return s
}

// Logs returns the delivery channel.
func (s *LogSubscription) Logs() <-chan *types.Log { return s.out }

// Unsubscribe detaches the subscription and closes the delivery channel
// once queued logs are no longer wanted. Safe to call more than once.
func (s *LogSubscription) Unsubscribe() {
	s.c.mu.Lock()
	delete(s.c.logSubs, s.id)
	s.c.mu.Unlock()
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.quit)
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

func (s *LogSubscription) enqueue(logs []*types.Log) {
	s.mu.Lock()
	s.queue = append(s.queue, logs...)
	s.cond.Signal()
	s.mu.Unlock()
}

func (s *LogSubscription) pump() {
	defer close(s.out)
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		batch := s.queue
		s.queue = nil
		s.mu.Unlock()
		for _, l := range batch {
			select {
			case s.out <- l:
			case <-s.quit:
				return
			}
		}
	}
}

// AddressSet is a concurrent, mutable address set used as a live
// subscription filter (FilterQuery.AddressIn): the chain's mined-block
// fan-out consults it under a read lock, the subscriber mutates it as its
// interest changes. An empty set matches nothing — a tower guarding zero
// contracts receives zero logs.
type AddressSet struct {
	mu sync.RWMutex
	m  map[types.Address]struct{}
}

// NewAddressSet creates an empty set.
func NewAddressSet() *AddressSet {
	return &AddressSet{m: make(map[types.Address]struct{})}
}

// Add inserts an address.
func (s *AddressSet) Add(a types.Address) {
	s.mu.Lock()
	s.m[a] = struct{}{}
	s.mu.Unlock()
}

// Remove deletes an address. Unknown addresses are ignored.
func (s *AddressSet) Remove(a types.Address) {
	s.mu.Lock()
	delete(s.m, a)
	s.mu.Unlock()
}

// Contains reports membership.
func (s *AddressSet) Contains(a types.Address) bool {
	s.mu.RLock()
	_, ok := s.m[a]
	s.mu.RUnlock()
	return ok
}

// Len returns the current size.
func (s *AddressSet) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Snapshot returns the current members, in unspecified order. The chain's
// indexed FilterLogs path uses it to enumerate candidate per-address index
// runs for an AddressIn query.
func (s *AddressSet) Snapshot() []types.Address {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]types.Address, 0, len(s.m))
	for a := range s.m {
		out = append(out, a)
	}
	return out
}

// matchLog applies the Address/AddressIn/Topic/Topics selectors of a
// FilterQuery.
func matchLog(q *FilterQuery, l *types.Log) bool {
	if q.Address != nil && l.Address != *q.Address {
		return false
	}
	if q.AddressIn != nil && !q.AddressIn.Contains(l.Address) {
		return false
	}
	if q.Topic != nil && (len(l.Topics) == 0 || l.Topics[0] != *q.Topic) {
		return false
	}
	if len(q.Topics) > 0 {
		if len(l.Topics) == 0 {
			return false
		}
		hit := false
		for i := range q.Topics {
			if l.Topics[0] == q.Topics[i] {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// BlockLogs is one mined block's worth of matching logs, delivered by a
// BlockLogSubscription. Logs is nil for blocks with no matches — the
// batch is still delivered so cursor-keeping consumers (the watchtower's
// durable block cursor, caught-up barriers) see every block boundary.
type BlockLogs struct {
	Number uint64
	Logs   []*types.Log
}

// BlockLogSubscription streams per-block batches of filtered logs: the
// subscription-layer filter a watchtower uses so only the logs of ITS
// guarded contracts cross the channel, while block boundaries still
// arrive for cursor advancement. Compare LogSubscription (a flat log
// stream, no boundaries).
type BlockLogSubscription struct {
	c  *Chain
	id uint64
	q  FilterQuery

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*BlockLogs
	closed bool

	quit chan struct{}
	out  chan *BlockLogs
}

// SubscribeBlockLogs registers a push subscription delivering, for every
// block mined after the call, the logs matching q's selectors (batched by
// block, empty batches included). q's AddressIn set may be mutated after
// subscribing; each mined block sees the set's state at mine time.
func (c *Chain) SubscribeBlockLogs(q FilterQuery) *BlockLogSubscription {
	s := &BlockLogSubscription{
		c:    c,
		q:    q,
		quit: make(chan struct{}),
		out:  make(chan *BlockLogs, 64),
	}
	s.cond = sync.NewCond(&s.mu)
	c.mu.Lock()
	c.subID++
	s.id = c.subID
	if c.blockLogSubs == nil {
		c.blockLogSubs = make(map[uint64]*BlockLogSubscription)
	}
	c.blockLogSubs[s.id] = s
	c.mu.Unlock()
	go s.pump()
	return s
}

// BlockLogs returns the delivery channel.
func (s *BlockLogSubscription) BlockLogs() <-chan *BlockLogs { return s.out }

// Unsubscribe detaches the subscription and closes the delivery channel.
// Safe to call more than once.
func (s *BlockLogSubscription) Unsubscribe() {
	s.c.mu.Lock()
	delete(s.c.blockLogSubs, s.id)
	s.c.mu.Unlock()
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.quit)
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

func (s *BlockLogSubscription) enqueue(b *BlockLogs) {
	s.mu.Lock()
	s.queue = append(s.queue, b)
	s.cond.Signal()
	s.mu.Unlock()
}

func (s *BlockLogSubscription) pump() {
	defer close(s.out)
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		batch := s.queue
		s.queue = nil
		s.mu.Unlock()
		for _, b := range batch {
			select {
			case s.out <- b:
			case <-s.quit:
				return
			}
		}
	}
}

// notifySubs fans a freshly mined block out to all subscriptions. Called
// from mineLocked with c.mu held; enqueue only takes the subscription's
// own lock (and AddressSet filters their own), so the lock order is
// always c.mu -> sub.mu / set.mu.
func (c *Chain) notifySubs(b *types.Block) {
	if len(c.logSubs) == 0 && len(c.blockLogSubs) == 0 {
		return
	}
	var logs []*types.Log
	for _, r := range b.Receipts {
		logs = append(logs, r.Logs...)
	}
	for _, s := range c.blockLogSubs {
		batch := &BlockLogs{Number: b.Number()}
		for _, l := range logs {
			if matchLog(&s.q, l) {
				batch.Logs = append(batch.Logs, l)
			}
		}
		// Empty batches are delivered too: the block boundary is the
		// subscriber's cursor tick.
		s.enqueue(batch)
	}
	if len(logs) == 0 {
		return
	}
	for _, s := range c.logSubs {
		var matched []*types.Log
		for _, l := range logs {
			if matchLog(&s.q, l) {
				matched = append(matched, l)
			}
		}
		if len(matched) > 0 {
			s.enqueue(matched)
		}
	}
}
