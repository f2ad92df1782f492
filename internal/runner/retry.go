package runner

import (
	"context"
	"errors"
	"time"
)

// ErrJobPanicked wraps a panic captured from a job's simulation, so
// retry policies can distinguish a crashed job (retryable) from a
// configuration error (not).
var ErrJobPanicked = errors.New("panicked")

// RetryPolicy bounds re-execution of jobs that crash or overrun the
// watchdog. Only panics and watchdog deadline overruns are retried;
// deterministic failures (bad config, solver divergence reported as an
// error) would fail identically again and are not.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first
	// (≤ 1 = no retry).
	MaxAttempts int
	// BaseBackoff is the first retry's delay (0 = 100 ms). Attempt n
	// waits BaseBackoff·2ⁿ⁻¹, capped at MaxBackoff, with seeded jitter
	// in [delay/2, delay].
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (0 = 5 s).
	MaxBackoff time.Duration
}

// Retryable reports whether a job failure is worth re-running: a
// captured panic or a watchdog timeout. Parent-context cancellation is
// not retryable — the sweep is shutting down.
func Retryable(err error) bool {
	return errors.Is(err, ErrJobPanicked) || errors.Is(err, context.DeadlineExceeded)
}

// Delay is the wait before retry attempt n (n ≥ 1 counts failed
// attempts so far): exponential growth with a deterministic jitter
// derived from the seed and attempt number (splitmix64), so retry
// schedules are reproducible per job yet decorrelated across the pool.
// It is the single backoff policy of the stack: job retry and the
// fabric's lease reclaim both derive their waits here, so the two
// paths cannot drift.
func (p RetryPolicy) Delay(seed int64, attempt int) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxB := p.MaxBackoff
	if maxB <= 0 {
		maxB = 5 * time.Second
	}
	d := base
	for i := 1; i < attempt && d < maxB; i++ {
		d *= 2
	}
	if d > maxB {
		d = maxB
	}
	// Jitter in [d/2, d], seeded by (job seed, attempt).
	half := d / 2
	if half <= 0 {
		return d
	}
	jit := time.Duration(uint64(deriveSeed(seed^0x0BACC0FF, attempt)) % uint64(half+1))
	return half + jit
}

// sleepBackoff waits the attempt's backoff or returns early (false)
// when the context cancels.
func sleepBackoff(ctx context.Context, p RetryPolicy, seed int64, attempt int) bool {
	t := time.NewTimer(p.Delay(seed, attempt))
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
