package svc

import "sync"

// flightGroup collapses concurrent calls with the same key into one
// execution whose result every caller shares (a minimal, dependency-free
// singleflight). Results are not retained after the last waiter returns;
// retention is the cache's job.
type flightGroup[V any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[V]
}

type flightCall[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
	// joined counts the callers waiting on this execution (guarded by
	// the group's mu).
	joined int
}

// Do runs fn once per concurrent set of callers sharing key and returns
// fn's result to all of them; shared reports whether this caller joined
// an execution started by another.
func (g *flightGroup[V]) Do(key string, fn func() (V, error)) (v V, err error, shared bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall[V])
	}
	if c, ok := g.calls[key]; ok {
		c.joined++
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err, true
	}
	c := &flightCall[V]{}
	c.wg.Add(1)
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	c.wg.Done()
	return c.val, c.err, false
}

// waiters reports how many callers have joined the execution in flight
// for key, 0 when none is.
func (g *flightGroup[V]) waiters(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c.joined
	}
	return 0
}
