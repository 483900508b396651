// Package fixture exercises the lockorder analyzer: lock-order cycles —
// direct ABBA pairs and same-class self-deadlocks through calls — and an
// interface call made under a lock carry // want comments; consistent
// orders, sibling-instance nesting, early unlocks, and goroutine spawns
// are false-positive coverage, and one reviewed cycle carries a
// //lint:ignore suppression.
package fixture

import "sync"

// accounts and ledger deadlock: transferAB takes accounts.mu then
// ledger.mu, transferBA takes them in the opposite order.
type accounts struct {
	mu  sync.Mutex
	bal map[string]int
}

type ledger struct {
	mu      sync.Mutex
	entries []string
}

func transferAB(a *accounts, l *ledger) {
	a.mu.Lock()
	defer a.mu.Unlock()
	l.mu.Lock() // want "potential deadlock: lock-order cycle fixture.accounts.mu -> fixture.ledger.mu -> fixture.accounts.mu"
	defer l.mu.Unlock()
	l.entries = append(l.entries, "ab")
}

func transferBA(a *accounts, l *ledger) {
	l.mu.Lock()
	defer l.mu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.bal["x"]++
}

// counter self-deadlocks: incr calls total while holding the same
// class of lock total acquires — guaranteed, not just potential, for a
// plain Mutex.
type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) incr() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n += c.total() // want "potential deadlock: lock-order cycle fixture.counter.mu -> fixture.counter.mu"
}

func (c *counter) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// ordered and inner are always taken in the same order: no cycle.
type ordered struct{ mu sync.Mutex }
type inner struct{ mu sync.Mutex }

func consistent1(o *ordered, i *inner) {
	o.mu.Lock()
	defer o.mu.Unlock()
	i.mu.Lock()
	defer i.mu.Unlock()
}

func consistent2(o *ordered, i *inner) {
	o.mu.Lock()
	defer o.mu.Unlock()
	i.mu.Lock()
	defer i.mu.Unlock()
}

// shard siblings: two instances of the same class locked in sequence in
// one body is the shard pattern, not recursion — no finding.
type shard struct {
	mu sync.Mutex
	m  map[string]int
}

func mergeShards(a, b *shard) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	for k, v := range b.m {
		a.m[k] += v
	}
}

// q1/q2 are only ever held one at a time — the early unlock ends the
// held interval, so the opposite textual orders never form an edge.
type q1 struct{ mu sync.Mutex }
type q2 struct{ mu sync.Mutex }

func seqAB(x *q1, y *q2) {
	x.mu.Lock()
	x.mu.Unlock()
	y.mu.Lock()
	y.mu.Unlock()
}

func seqBA(x *q1, y *q2) {
	y.mu.Lock()
	y.mu.Unlock()
	x.mu.Lock()
	x.mu.Unlock()
}

// spawnOpposite holds q1.mu while spawning a goroutine that takes
// q2.mu then q1.mu — the goroutine acquires on its own schedule, so the
// spawn is not "while holding" and no cycle forms.
func spawnOpposite(x *q1, y *q2) {
	x.mu.Lock()
	defer x.mu.Unlock()
	go lockQ2ThenQ1(x, y)
}

func lockQ2ThenQ1(x *q1, y *q2) {
	y.mu.Lock()
	defer y.mu.Unlock()
	x.mu.Lock()
	x.mu.Unlock()
}

// registry calls through an interface while holding its lock: the
// implementation, and so the locks it takes, is chosen at run time.
type notifier interface{ notify() }

type registry struct {
	mu  sync.Mutex
	obs notifier
}

func (r *registry) publish() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.obs.notify() // want "call through interface method (repro/internal/server/fixture.notifier).notify made while fixture.registry.mu is held"
}

// publishUnlocked makes the same call after releasing the lock: clean.
func (r *registry) publishUnlocked() {
	r.mu.Lock()
	obs := r.obs
	r.mu.Unlock()
	obs.notify()
}

// mcache/mstore form a real cycle that has been reviewed and accepted:
// the suppression documents why and is counted by the budget test.
type mcache struct{ mu sync.Mutex }
type mstore struct{ mu sync.Mutex }

func fillCache(c *mcache, s *mstore) {
	c.mu.Lock()
	defer c.mu.Unlock()
	//lint:ignore lockorder fixture coverage for suppressing a reviewed cycle; both paths are guarded by a single caller in this fixture's pretend world
	s.mu.Lock()
	s.mu.Unlock()
}

func invalidate(c *mcache, s *mstore) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.mu.Lock()
	c.mu.Unlock()
}

var _ = []any{transferAB, transferBA, (*counter).incr, consistent1, consistent2,
	mergeShards, seqAB, seqBA, spawnOpposite, (*registry).publish,
	(*registry).publishUnlocked, fillCache, invalidate}
