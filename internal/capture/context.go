package capture

// The names below are kept only because the frozen e2ebench harness
// (a separate module that this one may not edit) still compiles
// against them. They add no behaviour; delete them once the harness
// moves to Recorder directly.

// RecorderContext is Recorder, kept for the e2ebench harness.
type RecorderContext = Recorder

// WithContext returns rec unchanged, kept for the e2ebench harness.
func WithContext(rec Recorder) RecorderContext { return rec }
