package framelog

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FS is the file system a store's files and its index log live on: OS,
// or NewMemFS's map. It holds only the calls diskstore, the index log and
// ReplaceFile make.
type FS interface {
	MkdirAll(dir string) error
	// ReadDir returns the names of the files in dir, sorted.
	ReadDir(dir string) ([]string, error)
	ReadFile(name string) ([]byte, error)
	// OpenFile opens name with the os.O_* flags given.
	OpenFile(name string, flag int) (File, error)
	Remove(name string) error
	Rename(oldname, newname string) error
	// SyncDir makes the renames and file creations within dir durable.
	SyncDir(dir string) error
	// Lock takes the exclusive lock file name for as long as the
	// returned handle stays open.
	Lock(name string) (io.Closer, error)
}

// File is one open file of an FS. ReadAt and WriteAt are declared here,
// not embedded from io, so callers' calls resolve to this package.
type File interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Size() (int64, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// OS is the operating system's file system.
var OS FS = osFS{}

type osFS struct{}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func (osFS) MkdirAll(dir string) error            { return os.MkdirAll(dir, 0o755) }
func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }
func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, err
}

func (osFS) OpenFile(name string, flag int) (File, error) {
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// memFS keeps each file as a byte slice under its cleaned path. There
// are no directories: MkdirAll, SyncDir, Sync and Lock do nothing, and a
// handle keeps its bytes across Rename and Remove, as an inode would.
type memFS struct {
	mu    sync.RWMutex // guards files and every file's bytes
	files map[string]*[]byte
}

type memFile struct {
	fs   *memFS
	data *[]byte
}

// NewMemFS returns an empty in-memory FS.
func NewMemFS() FS { return &memFS{files: make(map[string]*[]byte)} }

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

func (m *memFS) MkdirAll(string) error          { return nil }
func (m *memFS) SyncDir(string) error           { return nil }
func (m *memFS) Lock(string) (io.Closer, error) { return io.NopCloser(nil), nil }

func (m *memFS) ReadDir(dir string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var names []string
	for name := range m.files {
		if filepath.Dir(name) == filepath.Clean(dir) {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.files[filepath.Clean(name)]
	if !ok {
		return nil, notExist("open", name)
	}
	return append([]byte(nil), *data...), nil
}

func (m *memFS) OpenFile(name string, flag int) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	data, ok := m.files[name]
	switch {
	case ok && flag&(os.O_CREATE|os.O_EXCL) == os.O_CREATE|os.O_EXCL:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrExist}
	case !ok && flag&os.O_CREATE == 0:
		return nil, notExist("open", name)
	case !ok:
		data = new([]byte)
		m.files[name] = data
	case flag&os.O_TRUNC != 0:
		*data = (*data)[:0]
	}
	return memFile{m, data}, nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if _, ok := m.files[name]; !ok {
		return notExist("remove", name)
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldname = filepath.Clean(oldname)
	data, ok := m.files[oldname]
	if !ok {
		return notExist("rename", oldname)
	}
	delete(m.files, oldname)
	m.files[filepath.Clean(newname)] = data
	return nil
}

func (f memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.RLock()
	defer f.fs.mu.RUnlock()
	if off >= int64(len(*f.data)) {
		return 0, io.EOF
	}
	n := copy(p, (*f.data)[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f memFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.resize(max(off+int64(len(p)), int64(len(*f.data))))
	return copy((*f.data)[off:], p), nil
}

// resize grows (zero-filling) or shrinks the bytes to size. Callers hold
// the FS lock.
func (f memFile) resize(size int64) {
	if n := int64(len(*f.data)); size > n {
		*f.data = append(*f.data, make([]byte, size-n)...)
	}
	*f.data = (*f.data)[:size]
}

func (f memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.resize(size)
	return nil
}

func (f memFile) Size() (int64, error) {
	f.fs.mu.RLock()
	defer f.fs.mu.RUnlock()
	return int64(len(*f.data)), nil
}

func (memFile) Sync() error  { return nil }
func (memFile) Close() error { return nil }
