package service

import (
	"sync"
	"time"
)

// rateLimiter is a per-client token bucket map: each client key (the
// X-Loopsum-Client header, else the remote host) refills at ratePerSec up
// to burst. The map is bounded: past maxClients the stalest bucket is
// evicted, so a rotating-key attacker costs memory proportional to the
// cap, not to the key space.
type rateLimiter struct {
	ratePerSec float64
	burst      float64
	maxClients int
	now        func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens  float64
	refill  time.Time // last refill
	lastUse time.Time // eviction recency
}

func newRateLimiter(ratePerSec, burst float64, maxClients int, now func() time.Time) *rateLimiter {
	if ratePerSec <= 0 {
		return nil // disabled
	}
	if burst < 1 {
		burst = 1
	}
	if maxClients <= 0 {
		maxClients = 4096
	}
	return &rateLimiter{
		ratePerSec: ratePerSec,
		burst:      burst,
		maxClients: maxClients,
		now:        now,
		buckets:    map[string]*bucket{},
	}
}

// allow consumes one token for key, reporting whether the request may
// proceed and, when it may not, how long until a token is available. A
// nil limiter allows everything.
func (rl *rateLimiter) allow(key string) (ok bool, retryAfter time.Duration) {
	if rl == nil {
		return true, 0
	}
	now := rl.now()
	rl.mu.Lock()
	defer rl.mu.Unlock()
	b := rl.buckets[key]
	if b == nil {
		if len(rl.buckets) >= rl.maxClients {
			rl.evictStalest()
		}
		b = &bucket{tokens: rl.burst, refill: now}
		rl.buckets[key] = b
	}
	if dt := now.Sub(b.refill).Seconds(); dt > 0 {
		b.tokens += dt * rl.ratePerSec
		if b.tokens > rl.burst {
			b.tokens = rl.burst
		}
		b.refill = now
	}
	b.lastUse = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / rl.ratePerSec * float64(time.Second))
	return false, wait
}

// evictStalest drops the least-recently-used bucket. Linear scan: the map
// is bounded by maxClients and eviction happens at most once per new key.
func (rl *rateLimiter) evictStalest() {
	var (
		stalest string
		oldest  time.Time
		first   = true
	)
	for k, b := range rl.buckets {
		if first || b.lastUse.Before(oldest) {
			stalest, oldest, first = k, b.lastUse, false
		}
	}
	if !first {
		delete(rl.buckets, stalest)
	}
}
