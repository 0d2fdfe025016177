package diskstore

import "github.com/paper-repo/staccato-go/internal/framelog"

// FrameOf locates id's live record for tests that damage it: the path of
// its segment file, and its frame's offset and length, header included.
func (s *Store) FrameOf(id string) (path string, off int64, n int, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ref, ok := s.index[id]
	return s.path(segName(ref.seg)), ref.off - framelog.HeaderSize, framelog.HeaderSize + ref.n, ok
}
