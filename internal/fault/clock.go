package fault

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Clock abstracts time for backoff and breaker code so that library
// packages never call time.Sleep directly (padvet's clockdiscipline rules
// forbid it):
// production code uses Wall, tests use Manual and advance time by hand.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in the
	// latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

// Wall is the real-time clock.
type Wall struct{}

// Now implements Clock.
func (Wall) Now() time.Time { return time.Now() } // padvet:allow time-now Wall is the real clock the rest of the repo injects

// Sleep implements Clock using a timer so cancellation interrupts the wait.
func (Wall) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d) // padvet:allow time-timer Wall.Sleep is the one real timer behind every injected wait
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Manual is a test clock whose time only moves when Advance is called.
// Sleepers park on channels and are released in deadline order as time
// passes them.
type Manual struct {
	mu      sync.Mutex
	now     time.Time      // guarded by mu
	waiters []manualWaiter // guarded by mu
}

type manualWaiter struct {
	deadline time.Time
	ch       chan struct{}
}

// NewManual returns a manual clock starting at start.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Sleepers returns how many goroutines are currently parked in Sleep.
func (m *Manual) Sleepers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiters)
}

// Sleep implements Clock; it blocks until Advance moves time past the
// deadline or ctx is done.
func (m *Manual) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	m.mu.Lock()
	w := manualWaiter{deadline: m.now.Add(d), ch: make(chan struct{})}
	m.waiters = append(m.waiters, w)
	m.mu.Unlock()
	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		m.remove(w.ch)
		return ctx.Err()
	}
}

func (m *Manual) remove(ch chan struct{}) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, w := range m.waiters {
		if w.ch == ch {
			m.waiters = append(m.waiters[:i], m.waiters[i+1:]...)
			return
		}
	}
}

// Advance moves the clock forward by d, waking every sleeper whose
// deadline has passed (in deadline order).
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	m.now = m.now.Add(d)
	var due []manualWaiter
	rest := m.waiters[:0]
	for _, w := range m.waiters {
		if !w.deadline.After(m.now) {
			due = append(due, w)
		} else {
			rest = append(rest, w)
		}
	}
	m.waiters = rest
	m.mu.Unlock()
	sort.Slice(due, func(i, j int) bool { return due[i].deadline.Before(due[j].deadline) })
	for _, w := range due {
		close(w.ch)
	}
}
