package resilience

import (
	"fmt"
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// StateClosed passes calls through, counting consecutive failures.
	StateClosed BreakerState = iota
	// StateHalfOpen lets a single probe through after the cooldown;
	// its outcome decides between closing and re-opening.
	StateHalfOpen
	// StateOpen fails fast; no call reaches the protected resource
	// until the cooldown elapses.
	StateOpen
)

func (s BreakerState) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateHalfOpen:
		return "half-open"
	case StateOpen:
		return "open"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// BreakerConfig tunes a circuit breaker. The zero value takes the
// defaults.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive transient failures
	// open the breaker (<= 0 means 3). A permanent failure — see
	// Breaker.Failure — opens it immediately regardless.
	FailureThreshold int
	// Cooldown is how long the breaker stays open before letting a
	// half-open probe through (<= 0 means 5s).
	Cooldown time.Duration
	// SuccessThreshold is how many consecutive half-open probe
	// successes close the breaker again (<= 0 means 1).
	SuccessThreshold int
	// Now stubs the clock in tests; defaults to time.Now.
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.SuccessThreshold <= 0 {
		c.SuccessThreshold = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is one circuit breaker: closed while the resource behaves,
// open (fail-fast) after it keeps failing, half-open to probe for
// recovery after the cooldown. Safe for concurrent use.
type Breaker struct {
	cfg      BreakerConfig
	onChange func(from, to BreakerState)

	mu        sync.Mutex
	state     BreakerState
	fails     int // consecutive failures while closed
	successes int // consecutive probe successes while half-open
	probing   bool
	openedAt  time.Time
}

// NewBreaker builds a breaker; onChange (may be nil) observes every
// state transition and is called outside the breaker lock.
func NewBreaker(cfg BreakerConfig, onChange func(from, to BreakerState)) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), onChange: onChange}
}

// Allow reports whether a call may proceed. In the open state it
// starts the half-open probe once the cooldown has elapsed; in
// half-open only one probe may be in flight at a time. Every allowed
// call must be matched by Success or Failure.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	switch b.state {
	case StateClosed:
		b.mu.Unlock()
		return true
	case StateOpen:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			b.mu.Unlock()
			return false
		}
		from := b.state
		b.state = StateHalfOpen
		b.successes = 0
		b.probing = true
		b.mu.Unlock()
		b.notify(from, StateHalfOpen)
		return true
	default: // half-open
		if b.probing {
			b.mu.Unlock()
			return false
		}
		b.probing = true
		b.mu.Unlock()
		return true
	}
}

// Success records a successful call.
func (b *Breaker) Success() {
	b.mu.Lock()
	from := b.state
	switch b.state {
	case StateClosed:
		b.fails = 0
	case StateHalfOpen:
		b.probing = false
		b.successes++
		if b.successes >= b.cfg.SuccessThreshold {
			b.state = StateClosed
			b.fails = 0
		}
	}
	to := b.state
	b.mu.Unlock()
	if from != to {
		b.notify(from, to)
	}
}

// Failure records a failed call. A permanent failure (corruption — the
// resource cannot heal on its own) trips the breaker immediately; a
// transient one counts toward the consecutive-failure threshold. A
// half-open probe failure re-opens for another cooldown either way.
func (b *Breaker) Failure(permanent bool) {
	b.mu.Lock()
	from := b.state
	switch b.state {
	case StateClosed:
		b.fails++
		if permanent || b.fails >= b.cfg.FailureThreshold {
			b.state = StateOpen
			b.openedAt = b.cfg.Now()
		}
	case StateHalfOpen:
		b.probing = false
		b.state = StateOpen
		b.openedAt = b.cfg.Now()
	case StateOpen:
		// A straggler from before the trip; keep the original clock.
	}
	to := b.state
	b.mu.Unlock()
	if from != to {
		b.notify(from, to)
	}
}

// State returns the current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Reset forces the breaker closed (operator action after repairing the
// resource out of band).
func (b *Breaker) Reset() {
	b.mu.Lock()
	from := b.state
	b.state = StateClosed
	b.fails, b.successes = 0, 0
	b.probing = false
	b.mu.Unlock()
	if from != StateClosed {
		b.notify(from, StateClosed)
	}
}

func (b *Breaker) notify(from, to BreakerState) {
	if b.onChange != nil {
		b.onChange(from, to)
	}
}

// BreakerSet manages one breaker per key (per quarter label in the
// store). Safe for concurrent use.
type BreakerSet struct {
	cfg BreakerConfig
	// OnChange (may be nil, set before first Get) observes every
	// transition of every member breaker, outside any breaker lock.
	onChange func(key string, from, to BreakerState)

	mu sync.Mutex
	m  map[string]*Breaker
}

// NewBreakerSet builds an empty set; every breaker it mints uses cfg
// and reports transitions to onChange (may be nil).
func NewBreakerSet(cfg BreakerConfig, onChange func(key string, from, to BreakerState)) *BreakerSet {
	return &BreakerSet{cfg: cfg.withDefaults(), onChange: onChange, m: map[string]*Breaker{}}
}

// Get returns the breaker for key, creating it (closed) on first use.
func (s *BreakerSet) Get(key string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[key]
	if !ok {
		var on func(from, to BreakerState)
		if s.onChange != nil {
			k := key
			on = func(from, to BreakerState) { s.onChange(k, from, to) }
		}
		b = NewBreaker(s.cfg, on)
		s.m[key] = b
	}
	return b
}

// Remove drops key's breaker (the resource is gone, e.g. quarantined).
func (s *BreakerSet) Remove(key string) {
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
}

// States snapshots every member breaker's state.
func (s *BreakerSet) States() map[string]BreakerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]BreakerState, len(s.m))
	for k, b := range s.m {
		out[k] = b.State()
	}
	return out
}

// OpenCount returns how many member breakers are not closed — the
// "how degraded are we" number behind readiness reporting.
// It allocates nothing: the server asks on every quarter request.
func (s *BreakerSet) OpenCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, b := range s.m {
		if b.State() != StateClosed {
			n++
		}
	}
	return n
}
