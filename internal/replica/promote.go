package replica

import (
	"errors"
	"time"

	"repro/internal/session"
)

// PromoteResult reports what a promotion moved into the serving engine.
type PromoteResult struct {
	Primary  string   `json:"primary"` // the (presumed dead) primary this standby was following
	Sessions []string `json:"sessions"`
	Skipped  []string `json:"skipped,omitempty"` // already live on the serving engine
	TookMs   float64  `json:"took_ms"`
}

// Promote turns the hot standby into the serving copy: tailing stops, and
// every standby session moves into dst (normally the same process's serving
// engine) by state-image install — O(state), not O(steps), which is the
// whole point of keeping a warm follower: no replay of the input history
// stands between a dead primary and its sessions accepting steps again.
//
// Every record the primary ever acknowledged to a client is either applied
// on the standby already or was lost with the primary's disk (only under
// fsync policies weaker than always); nothing in flight can land after the
// cutover because tailing has stopped. Sessions dst already serves are
// skipped — promotion after a partial promotion is idempotent.
func (f *Follower) Promote(dst *session.Engine) (*PromoteResult, error) {
	start := time.Now()
	f.cancel() // stop tailing; applied records are all the standby will ever hold
	f.wg.Wait()
	f.promoted.Store(true)
	infos, err := f.eng.List()
	if err != nil {
		return nil, err
	}
	res := &PromoteResult{Primary: f.cfg.Primary, Sessions: []string{}}
	for _, info := range infos {
		image, err := f.eng.ExportState(info.ID)
		if err != nil {
			return nil, err
		}
		if _, err := dst.Install(image); err != nil {
			var conflict *session.ConflictError
			if errors.As(err, &conflict) {
				// Already serving here (e.g. a re-promotion after a partial
				// failure): leave the live copy alone, retire the standby's.
				f.eng.Forget(info.ID)
				res.Skipped = append(res.Skipped, info.ID)
				continue
			}
			return nil, err
		}
		if err := f.eng.Forget(info.ID); err != nil {
			return nil, err
		}
		res.Sessions = append(res.Sessions, info.ID)
	}
	res.TookMs = float64(time.Since(start).Microseconds()) / 1000
	f.logf("replica: promoted %d sessions from %s in %.1fms", len(res.Sessions), f.cfg.Primary, res.TookMs)
	return res, nil
}
