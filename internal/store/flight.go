package store

import (
	"context"
	"errors"
	"sync"
)

// ErrFlightAborted is what the followers of a flight get when its leader's
// function panicked before producing a result (the panic itself propagates
// in the leader's goroutine).
var ErrFlightAborted = errors.New("flight aborted: its leader panicked")

// Flight deduplicates concurrent work by key: the first caller of Do(key)
// runs fn, and every concurrent caller with the same key waits for that
// run and shares its result. It is a minimal generic reimplementation of
// golang.org/x/sync/singleflight (the module tree is dependency-free).
//
// The leader runs fn to completion even if its own context is canceled:
// followers may still be waiting on the result. A follower whose ctx
// expires abandons its wait with ctx.Err(); the flight keeps running for
// the others. The zero value is ready to use.
type Flight[V any] struct {
	mu sync.Mutex
	m  map[string]*flightCall[V]
}

type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
	dups int // followers that joined the call
}

// Do runs fn once per concurrent key. shared reports whether this caller
// was a follower (true) or the leader that ran fn (false).
func (g *Flight[V]) Do(ctx context.Context, key string, fn func() (V, error)) (v V, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[string]*flightCall[V]{}
	}
	if c, ok := g.m[key]; ok {
		c.dups++
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			return v, true, ctx.Err()
		}
	}
	c := &flightCall[V]{done: make(chan struct{}), err: ErrFlightAborted}
	g.m[key] = c
	g.mu.Unlock()

	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	return c.val, false, c.err
}
