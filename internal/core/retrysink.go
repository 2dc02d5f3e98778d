package core

import (
	"io"
	"time"

	"smartsra/internal/metrics"
	"smartsra/internal/session"
)

// RetrySink instrumentation, labeled by event kind so /debug/metrics exposes
// one series per outcome under a single base name:
//
//	core.retrysink.events{kind="retry"}      write attempts repeated after a failure
//	core.retrysink.events{kind="recovery"}   batches that succeeded after >= 1 retry
//	core.retrysink.events{kind="deadletter"} sessions journaled after retries were exhausted
//	core.retrysink.events{kind="dropped"}    sessions lost entirely (no journal, or the journal failed too)
//	core.retrysink.events{kind="reingest"}   journaled sessions re-written through the recovered sink
//	core.retrysink.events{kind="compact"}    journal truncations after a successful re-ingest
var (
	metricRetrySinkWrites = metrics.GetCounter(metrics.WithLabels(
		"core.retrysink.events", "kind", "write"))
	metricRetrySinkRetries = metrics.GetCounter(metrics.WithLabels(
		"core.retrysink.events", "kind", "retry"))
	metricRetrySinkRecoveries = metrics.GetCounter(metrics.WithLabels(
		"core.retrysink.events", "kind", "recovery"))
	metricRetrySinkDeadLetters = metrics.GetCounter(metrics.WithLabels(
		"core.retrysink.events", "kind", "deadletter"))
	metricRetrySinkDropped = metrics.GetCounter(metrics.WithLabels(
		"core.retrysink.events", "kind", "dropped"))
	metricRetrySinkReingested = metrics.GetCounter(metrics.WithLabels(
		"core.retrysink.events", "kind", "reingest"))
	metricRetrySinkCompactions = metrics.GetCounter(metrics.WithLabels(
		"core.retrysink.events", "kind", "compact"))
)

// RetryOptions tunes a RetrySink. The zero value gives production defaults.
type RetryOptions struct {
	// MaxAttempts is the total number of write attempts per batch, the first
	// one included. <= 0 means 5.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per retry.
	// <= 0 means 10ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. <= 0 means 1s.
	MaxDelay time.Duration
	// Sleep is the backoff clock; nil means time.Sleep. Tests inject a fake
	// to keep retry paths instant.
	Sleep func(time.Duration)
	// DeadLetter receives batches whose retries were exhausted, in the
	// session text format (re-ingestable with session.ReadAll). nil means
	// exhausted batches are dropped — still counted, never silent.
	//
	// When the writer also supports reading, seeking, and truncation (an
	// *os.File opened O_RDWR does), the journal is garbage-collected: the
	// next time the underlying sink recovers, journaled sessions are
	// re-ingested through it and the journal is truncated to empty, so the
	// dead-letter file tracks the current outage instead of growing without
	// bound. A journal left over from a previous run is healed the same way.
	DeadLetter io.Writer
}

// journalFile is the optional dead-letter surface that enables compaction.
type journalFile interface {
	io.ReadWriteSeeker
	Truncate(int64) error
}

func (o RetryOptions) maxAttempts() int {
	if o.MaxAttempts <= 0 {
		return 5
	}
	return o.MaxAttempts
}

func (o RetryOptions) baseDelay() time.Duration {
	if o.BaseDelay <= 0 {
		return 10 * time.Millisecond
	}
	return o.BaseDelay
}

func (o RetryOptions) maxDelay() time.Duration {
	if o.MaxDelay <= 0 {
		return time.Second
	}
	return o.MaxDelay
}

// RetrySink hardens a session sink against transient write failures: each
// batch is retried with bounded exponential backoff, and a batch that still
// fails is journaled to a dead-letter writer instead of vanishing. Every
// outcome is counted (see the core.retrysink.events series), so a sink that
// starts failing is visible on /debug/metrics instead of silently discarding
// finalized sessions.
//
// Emit is not safe for concurrent use: one goroutine owns a RetrySink, as it
// owns the Tail whose sessions it writes, so a slow or failing underlying
// writer backpressures that goroutine.
type RetrySink struct {
	write   func([]session.Session) error
	opts    RetryOptions
	lastErr error
	// journal is the dead-letter writer's compactable surface, nil when the
	// writer cannot be GC'd. dead records that the journal holds sessions
	// awaiting re-ingest, so recovered Emits know to compact.
	journal journalFile
	dead    bool
}

// NewRetrySink wraps a fallible batch write. Use (*RetrySink).Emit wherever a
// SessionSink is expected.
func NewRetrySink(write func([]session.Session) error, opts RetryOptions) *RetrySink {
	s := &RetrySink{write: write, opts: opts}
	if j, ok := opts.DeadLetter.(journalFile); ok {
		s.journal = j
		// A non-empty journal at construction is a previous run's backlog:
		// mark it pending so the first successful write re-ingests it.
		if size, err := j.Seek(0, io.SeekEnd); err == nil && size > 0 {
			s.dead = true
		}
	}
	return s
}

// Emit writes one batch, retrying on failure and dead-lettering on
// exhaustion. It satisfies SessionSink and must not retain the slice.
func (s *RetrySink) Emit(batch []session.Session) {
	if len(batch) == 0 {
		return
	}
	sleep := s.opts.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var err error
	for attempt := 0; attempt < s.opts.maxAttempts(); attempt++ {
		if attempt > 0 {
			metricRetrySinkRetries.Inc()
			sleep(s.backoff(attempt))
		}
		if err = s.write(batch); err == nil {
			metricRetrySinkWrites.Inc()
			if attempt > 0 {
				metricRetrySinkRecoveries.Inc()
			}
			if s.dead {
				s.compact()
			}
			return
		}
	}
	s.lastErr = err
	if s.opts.DeadLetter != nil {
		if s.journal != nil {
			// Compaction may have left the cursor at the journal's start;
			// dead letters always append.
			if _, err := s.journal.Seek(0, io.SeekEnd); err != nil {
				metricRetrySinkDropped.Add(int64(len(batch)))
				return
			}
		}
		if dlErr := session.WriteAll(s.opts.DeadLetter, batch); dlErr == nil {
			metricRetrySinkDeadLetters.Add(int64(len(batch)))
			s.dead = s.journal != nil
			return
		}
	}
	metricRetrySinkDropped.Add(int64(len(batch)))
}

// compact garbage-collects the dead-letter journal after the underlying
// sink recovered: journaled sessions are re-written through the (now
// working) sink and the journal is truncated to empty. A journal that
// cannot be read back, or a sink that fails again mid-re-ingest, leaves the
// journal intact — nothing is truncated before its sessions have landed.
func (s *RetrySink) compact() {
	if _, err := s.journal.Seek(0, io.SeekStart); err != nil {
		return
	}
	backlog, err := session.ReadAll(s.journal)
	if err != nil {
		// Unreadable (torn write from a crash mid-journal): keep the file
		// for the operator rather than destroying evidence.
		s.journal.Seek(0, io.SeekEnd)
		return
	}
	if len(backlog) > 0 {
		if err := s.write(backlog); err != nil {
			s.journal.Seek(0, io.SeekEnd)
			return
		}
		metricRetrySinkReingested.Add(int64(len(backlog)))
	}
	if err := s.journal.Truncate(0); err != nil {
		s.journal.Seek(0, io.SeekEnd)
		return
	}
	if _, err := s.journal.Seek(0, io.SeekStart); err != nil {
		return
	}
	s.dead = false
	metricRetrySinkCompactions.Inc()
}

// Err returns the most recent exhausted-retries error, or nil when every
// batch so far landed (possibly after retries).
func (s *RetrySink) Err() error { return s.lastErr }

// backoff is the delay before retry number attempt (1-based): BaseDelay
// doubled per retry, capped at MaxDelay.
func (s *RetrySink) backoff(attempt int) time.Duration {
	d := s.opts.baseDelay()
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= s.opts.maxDelay() {
			return s.opts.maxDelay()
		}
	}
	if d > s.opts.maxDelay() {
		return s.opts.maxDelay()
	}
	return d
}
