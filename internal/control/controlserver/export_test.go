package controlserver

import "vprofile/internal/pipeline"

// LastFeedStats exposes the pipeline accounting of a bus's most
// recently finished feed, for frame-conservation checks.
func LastFeedStats(d *Daemon, bus string) (pipeline.Stats, bool) {
	return FeedStatsReader(d, bus)()
}

// FeedStatsReader binds the bus's current run and returns a reader of
// its most recently finished feed's accounting. The reader keeps
// working after Detach drops the bus from the daemon, so a test can
// audit the feed a detach ended.
func FeedStatsReader(d *Daemon, bus string) func() (pipeline.Stats, bool) {
	d.mu.Lock()
	b := d.buses[bus]
	d.mu.Unlock()
	return func() (pipeline.Stats, bool) {
		if b == nil {
			return pipeline.Stats{}, false
		}
		b.mu.Lock()
		sess, live := b.sess, b.feed != nil
		b.mu.Unlock()
		if sess == nil || live {
			return pipeline.Stats{}, false
		}
		return sess.Snapshot().Stats, true
	}
}
