// Package fixture exercises lockio: decoding or touching the
// filesystem while a mutex is provably held is flagged — directly or
// through a same-package callee — while the read-then-release idiom,
// early-unlocked branches, and annotated holds are not.
package fixture

import (
	"encoding/json"
	"io"
	"os"
	"sync"

	"github.com/paper-repo/staccato-go/internal/framelog"
)

type store struct {
	mu  sync.RWMutex
	f   *os.File
	off int64
}

func (s *store) decodeUnderLock(buf []byte, v any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return json.Unmarshal(buf, v) // want "json.Unmarshal decodes while s.mu is held"
}

func (s *store) readUnderLock(buf []byte) error {
	s.mu.RLock()
	_, err := s.f.ReadAt(buf, 0) // want "s.f.ReadAt performs file I/O while s.mu is held"
	s.mu.RUnlock()
	return err
}

func (s *store) syncViaHelper() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fsync() // want "s.fsync performs file I/O while s.mu is held"
}

// fsync reaches file I/O; callers holding s.mu inherit the violation
// through the package-local summary.
func (s *store) fsync() error {
	return s.f.Sync()
}

// readThenDecode is the blessed shape: copy bytes under the lock
// (annotated — the lock pins the file open), decode after releasing.
func (s *store) readThenDecode(v any) error {
	s.mu.RLock()
	buf := make([]byte, 64)
	//lint:allow lockio the lock pins the file open across the read; the decode below runs outside it
	_, err := s.f.ReadAt(buf, s.off)
	s.mu.RUnlock()
	if err != nil {
		return err
	}
	return json.Unmarshal(buf, v)
}

// branchUnlock releases inside the branch before reading, so the read
// is clean even though the fall-through path still holds the lock.
func (s *store) branchUnlock(cond bool, buf []byte) error {
	s.mu.Lock()
	if cond {
		s.mu.Unlock()
		_, err := s.f.Read(buf)
		return err
	}
	s.mu.Unlock()
	return nil
}

// unlockedIO never takes the lock at all.
func (s *store) unlockedIO(buf []byte) error {
	_, err := s.f.ReadAt(buf, s.off)
	return err
}

func (s *store) loopRead(bufs [][]byte) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := 0; i < len(bufs); i++ {
		if _, err := s.f.Read(bufs[i]); err != nil { // want "s.f.Read performs file I/O while s.mu is held"
			return err
		}
	}
	return nil
}

func (s *store) rangeRead(bufs [][]byte) {
	s.mu.Lock()
	for _, b := range bufs {
		s.f.Read(b) // want "s.f.Read performs file I/O while s.mu is held"
	}
	s.mu.Unlock()
}

func (s *store) switchRead(mode int, buf []byte) {
	s.mu.Lock()
	switch mode {
	case 0:
		s.f.Read(buf) // want "s.f.Read performs file I/O while s.mu is held"
	default:
	}
	s.mu.Unlock()
}

func (s *store) typeSwitchRead(v any, buf []byte) {
	s.mu.Lock()
	switch v.(type) {
	case int:
		s.f.Read(buf) // want "s.f.Read performs file I/O while s.mu is held"
	}
	s.mu.Unlock()
}

func (s *store) selectRead(ch chan struct{}, buf []byte) {
	s.mu.Lock()
	select {
	case <-ch:
		s.f.Read(buf) // want "s.f.Read performs file I/O while s.mu is held"
	default:
	}
	s.mu.Unlock()
}

func (s *store) labeledRead(buf []byte) {
	s.mu.Lock()
again:
	if _, err := s.f.Read(buf); err == nil { // want "s.f.Read performs file I/O while s.mu is held"
		goto again
	}
	s.mu.Unlock()
}

func (s *store) blockRead(buf []byte) {
	s.mu.Lock()
	{
		s.f.Read(buf) // want "s.f.Read performs file I/O while s.mu is held"
	}
	s.mu.Unlock()
}

func (s *store) osFuncUnderLock(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.Remove(path) // want "os.Remove performs file I/O while s.mu is held"
}

func (s *store) ioFuncUnderLock(r io.Reader, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := io.ReadFull(r, buf) // want "io.ReadFull performs file I/O while s.mu is held"
	return err
}

// framelogUnderLock: the file layer's I/O happens in another package,
// out of the package-local summaries' sight, so its entry points are
// named I/O outright — all but the pure encoder.
func (s *store) framelogUnderLock(path string, buf, payload []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf = framelog.Append(buf, payload)
	_, err := framelog.ReplaceFile(path, buf) // want "framelog.ReplaceFile performs file I/O while s.mu is held"
	return buf, err
}

// funcLitNotTraced returns a closure whose run time — and lock state —
// is unknowable here, so its body is not checked.
func (s *store) funcLitNotTraced() func() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return func() error { return s.f.Sync() }
}

// closeAllowed: Close is deliberately not treated as I/O — swapping
// handles is part of the state the locks protect.
func (s *store) closeAllowed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}
