package controlserver

import "vprofile/internal/pipeline"

// LastFeedStats exposes the pipeline accounting of a bus's most
// recently finished feed, for frame-conservation checks.
func LastFeedStats(d *Daemon, bus string) (pipeline.Stats, bool) {
	d.mu.Lock()
	b := d.buses[bus]
	d.mu.Unlock()
	if b == nil {
		return pipeline.Stats{}, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.lastSum == nil {
		return pipeline.Stats{}, false
	}
	return b.lastSum.Stats, true
}
