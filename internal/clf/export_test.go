package clf

// Helpers of the internal tests, for the external ones (pipe_test.go imports
// faultio, which imports this package, so it cannot live in package clf).
var (
	SynthLog    = synthLog
	SameRecords = sameRecords
)
