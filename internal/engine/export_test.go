package engine

import "vprofile/internal/ids"

// BatchBound sets the pipeline's records-per-batch bound, so the
// engine's tests can sweep batch shapes; verdicts are identical at
// every bound.
func BatchBound(n int) Option { return func(s *settings) { s.batch = n } }

// MemberOptions exposes the batch size and quarantine thresholds a
// fleet member was built with, so tests can check that members carry
// every option the fleet was given.
func MemberOptions(s *Session) (batch int, quarantine *ids.QuarantineConfig) {
	return s.batch, s.quarCfg
}
