//go:build race

package session

// raceEnabled reports a race-detector build, under which sync.Pool drops a
// quarter of its Puts at random: a pooled frame is then rebuilt now and
// again, and an averaged allocation count reads higher.
const raceEnabled = true
