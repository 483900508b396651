// Package fixture exercises the golife analyzer: go statements with no
// statically visible join or cancellation path carry // want comments,
// and so does a spawn of a function value, which cannot be resolved
// statically. WaitGroup joins, spawner-received channels (captured and
// through parameters), ctx-derived exits, channel ranges, and join paths
// reached over static calls are false-positive coverage, and one
// deliberate detachment carries a //lint:ignore suppression.
package fixture

import (
	"context"
	"sync"
)

// detach spawns a worker nothing ever joins or cancels.
func detach() {
	go logForever() // want "no statically visible join or cancellation path"
}

func logForever() {
	for {
	}
}

// fireAndForget sends on a channel the spawner never receives on: the
// send is not join evidence for THIS spawner.
func fireAndForget(ch chan int) {
	go func() { // want "no statically visible join or cancellation path"
		ch <- 1
	}()
}

// joinWithWG is the canonical join: Add before, Done inside, Wait after.
func joinWithWG() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
	wg.Wait()
}

// joinWithChan closes a captured channel the spawner receives on.
func joinWithChan() {
	done := make(chan struct{})
	go func() {
		close(done)
	}()
	<-done
}

// sendToSpawner signals completion by sending, not closing.
func sendToSpawner() {
	res := make(chan int, 1)
	go func() {
		res <- 42
	}()
	<-res
}

// cancelWithCtx exits when the spawner's context is cancelled.
func cancelWithCtx(ctx context.Context) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			default:
			}
		}
	}()
}

// rangeWorker drains a channel: the feeder's close is the exit path.
func rangeWorker(jobs chan int) {
	go func() {
		for range jobs {
		}
	}()
}

// spawnNamed joins a named callee through parameter translation: signal
// closes its parameter, which is the argument the spawner receives on.
func spawnNamed() {
	done := make(chan struct{})
	go signal(done)
	<-done
}

func signal(d chan struct{}) {
	close(d)
}

// spawnWorker finds its cancellation path over static calls: runLoop
// shows nothing, but pump — reachable from it — selects on ctx.Done().
func spawnWorker(ctx context.Context) {
	go runLoop(ctx)
}

func runLoop(ctx context.Context) {
	pump(ctx)
}

func pump(ctx context.Context) {
	select {
	case <-ctx.Done():
	}
}

// spawnCallback's target is a function value: its join path cannot be
// seen statically, so the spawn is reported.
func spawnCallback(fn func()) {
	go fn() // want "cannot resolve statically"
}

// detachedOnPurpose documents a goroutine that must outlive its spawner.
func detachedOnPurpose() {
	//lint:ignore golife fixture coverage: the janitor deliberately outlives its spawner and exits with the process
	go logForever()
}

var _ = []any{detach, fireAndForget, joinWithWG, joinWithChan, sendToSpawner,
	cancelWithCtx, rangeWorker, spawnNamed, spawnWorker, spawnCallback,
	detachedOnPurpose}
