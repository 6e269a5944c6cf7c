package engine

import "vprofile/internal/ids"

// MemberOptions exposes the batch size and quarantine thresholds a
// fleet member was built with, so tests can check that members carry
// every option the fleet was given.
func MemberOptions(s *Session) (batch int, quarantine *ids.QuarantineConfig) {
	return s.batch, s.quarCfg
}
