package session

import (
	"fmt"
	"math"
	"time"
)

// Per-session rate limiting: a token bucket per session, refilled at
// Config.SessionRate steps per second up to Config.SessionBurst tokens.
// One step costs one token; an empty bucket rejects the step with
// RateLimitedError (HTTP 429 + Retry-After) before anything is logged.
// The bucket lives only in memory — it is policy, not session identity —
// so restarts and handoffs start a fresh bucket, which errs on the side of
// admitting work.

// bucket is a session's token bucket. It is touched only under the owning
// shard's lock, like every other per-session field.
type bucket struct {
	tokens float64
	last   time.Time
}

// take refills by elapsed time and spends one token. On failure it returns
// how long until a token is available.
func (b *bucket) take(rate, burst float64, now time.Time) (bool, time.Duration) {
	if b.last.IsZero() {
		b.tokens = burst
	} else if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(burst, b.tokens+rate*dt)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / rate * float64(time.Second))
	return false, wait
}

// RateLimitedError reports a step rejected by the per-session rate limit.
// The HTTP layer maps it to 429 with Retry-After set from RetryAfter.
type RateLimitedError struct {
	ID         string
	RetryAfter time.Duration
}

func (err *RateLimitedError) Error() string {
	return fmt.Sprintf("session %s: rate limit exceeded, retry in %s", err.ID, err.RetryAfter.Round(time.Millisecond))
}

// retryAfterSeconds renders the wait as a Retry-After header value,
// rounding up so the client never retries early.
func retryAfterSeconds(d time.Duration) string {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return fmt.Sprint(s)
}
