// Package fixture exercises the ctxflow analyzer: fresh, nil, and dropped
// contexts in handler paths carry // want comments, the rest are
// false-positive coverage.
package fixture

import (
	"context"
	"net/http"
	"time"
)

// engine mirrors core.Engine's blocking surface.
type engine struct{}

func (e *engine) Characterize(ctx context.Context, name string) error { return ctx.Err() }

var eng engine

// freshInHandler constructs a fresh context on a blocking path.
func freshInHandler(w http.ResponseWriter, r *http.Request) {
	_ = eng.Characterize(context.Background(), "sgemm") // want "context.Background"
}

// todoInHandler is the same failure wearing its placeholder name.
func todoInHandler() {
	_ = eng.Characterize(context.TODO(), "sgemm") // want "context.TODO"
}

// nilCtx passes nil where a context is required: a latent panic.
func nilCtx(ctx context.Context) {
	_ = eng.Characterize(nil, "sgemm") // want "nil passed as the context.Context argument"
}

// threaded passes the request context straight through: the correct shape.
func threaded(w http.ResponseWriter, r *http.Request) {
	_ = eng.Characterize(r.Context(), "sgemm")
}

// derived threads a deadline-wrapped request context: still derived, still
// correct.
func derived(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), time.Second)
	defer cancel()
	_ = eng.Characterize(ctx, "sgemm")
}

// rethreaded derives in two hops through locals, exercising the fixpoint.
func rethreaded(ctx context.Context) {
	inner := ctx
	scoped, cancel := context.WithCancel(inner)
	defer cancel()
	_ = eng.Characterize(scoped, "sgemm")
}

// foreign is a package-level context no request owns.
var foreign = func() context.Context {
	//lint:ignore ctxflow fixture plumbing: build one foreign context to drop
	return context.Background()
}()

// dropped has a context parameter but sends an unrelated context
// downstream: the in-scope deadline is silently discarded.
func dropped(ctx context.Context) {
	_ = eng.Characterize(foreign, "sgemm") // want "request context is dropped"
}

// detachedClosure detaches inside a closure with no context parameter of
// its own — the server's detached-study pattern. The closure is exempt from the
// derivation rule, and the deliberate Background carries a reasoned
// suppression.
func detachedClosure(ctx context.Context) {
	go func() {
		//lint:ignore ctxflow the study belongs to every future asker, not to this requester
		_ = eng.Characterize(context.Background(), "sgemm")
	}()
}

// noSources has no context of its own: only rules 1 and 2 apply, so passing
// a stored context through is fine.
func noSources() {
	_ = eng.Characterize(foreign, "sgemm")
}

var _ = []any{freshInHandler, todoInHandler, nilCtx, threaded, derived,
	rethreaded, dropped, detachedClosure, noSources}
