package checkpoint

import "time"

// Writer rate-limits checkpoint saves for a streaming caller that reaches a
// consistent point far more often than a snapshot is worth taking (every
// chunk boundary, every request). It is not safe for concurrent use; callers
// invoke it from the goroutine that owns the sessionizer state.
type Writer struct {
	// clock stands in for time.Now when set: tests inject a fake to
	// exercise the rate limit deterministically.
	clock func() time.Time

	fsys  FS
	path  string
	every time.Duration
	last  time.Time
	// buf holds the last save's file; the next save encodes into its
	// storage, so a steady-state save allocates nothing for the encoding.
	buf []byte
}

// NewWriter returns a Writer that saves to path via fsys at most once per
// every (every <= 0 saves on every MaybeSave call).
func NewWriter(fsys FS, path string, every time.Duration) *Writer {
	return &Writer{fsys: fsys, path: path, every: every}
}

// Path returns the checkpoint file path the writer targets.
func (w *Writer) Path() string { return w.path }

// Save writes a checkpoint unconditionally and resets the rate-limit clock.
// A failed save leaves the previous on-disk checkpoint intact (Save in this
// package is atomic), so the caller can report the error and carry on — a
// flaky disk degrades recovery granularity, it does not stop ingestion.
func (w *Writer) Save(ck *Checkpoint) error {
	w.last = w.now()
	w.buf = encode(w.buf, ck)
	return write(w.fsys, w.path, w.buf)
}

// MaybeSave saves if at least the configured interval elapsed since the last
// save. build is only invoked when a save is due, so callers can defer the
// snapshot work (and the syncs it needs) to it; an error from build skips the
// save and is returned, and the next call is due again.
func (w *Writer) MaybeSave(build func() (*Checkpoint, error)) (saved bool, err error) {
	if now := w.now(); !w.last.IsZero() && now.Sub(w.last) < w.every {
		return false, nil
	}
	ck, err := build()
	if err != nil {
		return false, err
	}
	return true, w.Save(ck)
}

func (w *Writer) now() time.Time {
	if w.clock != nil {
		return w.clock()
	}
	return time.Now()
}
