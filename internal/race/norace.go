//go:build !race

// Package race reports whether the race detector is compiled in. The
// detector's instrumentation allocates, so allocation-count pins skip under
// it.
package race

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
