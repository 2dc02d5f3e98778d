package checkpoint

import "time"

// SetClock replaces w's clock, for the external tests.
func SetClock(w *Writer, now func() time.Time) { w.clock = now }
