// Package fixture exercises the mutexguard analyzer: accesses to
// `guarded by <mu>`-annotated fields outside the named lock carry // want
// comments, the rest are false-positive coverage.
package fixture

import "sync"

// pool mirrors the repo's annotated concurrent structs.
type pool struct {
	mu      sync.Mutex
	entries map[string]int // guarded by mu
	closed  bool           // guarded by mu
	// capacity is immutable after construction; unannotated fields are
	// never checked.
	capacity int
}

// registry exercises RWMutex and doc-comment annotations.
type registry struct {
	mu sync.RWMutex
	// values holds the live counters.
	//
	// guarded by mu
	values map[string]int64
}

// badAnnotation carries malformed annotations, each reported at its field.
type badAnnotation struct {
	gate    chan struct{}
	state   int // guarded by gate -- want "not a sync.Mutex"
	absent  int // guarded by nobody -- want "not a field"
	regular int
}

// locked accesses under the named mutex: the canonical pattern.
func (p *pool) get(key string) (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.entries[key]
	return v, ok
}

// rlocked accesses under an RLock, which also counts as acquisition.
func (r *registry) snapshot() map[string]int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int64, len(r.values))
	for k, v := range r.values {
		out[k] = v
	}
	return out
}

// unlocked reads an annotated field with no acquisition in sight.
func (p *pool) unlocked() bool {
	return p.closed // want "never acquires p.mu"
}

// wrongInstance locks one pool but touches another: the receiver
// expressions differ, so the acquisition does not sanction the access.
func wrongInstance(a, b *pool) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(b.entries) // want "never acquires b.mu"
}

// addLocked follows the *locked naming convention: the caller holds the
// lock, so accesses inside are sanctioned.
func (p *pool) addLocked(key string, v int) {
	p.entries[key] = v
}

// add is the caller that takes the lock and delegates.
func (p *pool) add(key string, v int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.addLocked(key, v)
}

// closureDetached accesses a guarded field inside a goroutine closure that
// never locks: closures are their own scope, so the enclosing function's
// Lock does not sanction them.
func (p *pool) closureDetached() {
	p.mu.Lock()
	defer p.mu.Unlock()
	go func() {
		p.closed = true // want "never acquires p.mu"
	}()
}

// closureLocking locks inside the closure itself: sanctioned.
func (p *pool) closureLocking() {
	go func() {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
	}()
}

// rangeReceiver exercises acquisition through a non-trivial base
// expression (the range variable), summing over a slice of shards.
func sum(pools []*pool) int {
	n := 0
	for _, p := range pools {
		p.mu.Lock()
		n += len(p.entries)
		p.mu.Unlock()
	}
	return n
}

// suppressed shows a suppressed, reasoned exception: an init-before-share
// write during construction.
func newPool() *pool {
	p := &pool{capacity: 8}
	//lint:ignore mutexguard construction precedes sharing; no other goroutine can hold the lock yet
	p.entries = make(map[string]int)
	return p
}

var _ = []any{(*pool).get, (*registry).snapshot, (*pool).unlocked, wrongInstance,
	(*pool).add, (*pool).closureDetached, (*pool).closureLocking, sum, newPool,
	badAnnotation{}}
