//go:build !unix

package storage

// mapping is empty where osFile offers no views: every read is a ReadAt.
type mapping struct{}

func (*mapping) shrink(int64) {}
func (*mapping) close()       {}
