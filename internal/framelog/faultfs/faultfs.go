// Package faultfs wraps a framelog.FS so that tests can fail chosen file
// calls: the n-th call of some kinds, or every one, on the files whose
// name matches. The store's and the index log's failure tests share it.
// Test-only: nothing in the product imports it.
package faultfs

import (
	"errors"
	"os"
	"path"
	"path/filepath"
	"sync"

	"github.com/paper-repo/staccato-go/internal/framelog"
)

// Op is a kind of call FS can fail. Kinds combine as a bit set.
type Op uint8

const (
	// OpenWrite is OpenFile with os.O_WRONLY or os.O_RDWR.
	OpenWrite Op = 1 << iota
	WriteAt
	Sync
	// Rename is matched against the new name.
	Rename
)

// ErrInjected is the error a failed call returns.
var ErrInjected = errors.New("faultfs: injected failure")

// Fault names the calls FS fails: the calls of the kinds Ops on files
// whose base name matches Name, a path.Match pattern — the N-th of them
// counted from Arm, or every one when N is 0. The zero Fault fails
// nothing.
type Fault struct {
	Name string
	Ops  Op
	N    int
}

// FS is a framelog.FS that fails the calls its armed Fault names and
// passes everything else through to the FS it wraps. Every file it opens
// is wrapped, whenever it was opened. It is safe for concurrent use.
type FS struct {
	framelog.FS

	mu    sync.Mutex
	fault Fault
	calls int // calls the fault names, since Arm
	reads int // ReadAt calls on any file
}

// New wraps fsys, armed with the zero Fault.
func New(fsys framelog.FS) *FS { return &FS{FS: fsys} }

// Arm replaces the armed fault with ft and restarts the count of its
// calls.
func (f *FS) Arm(ft Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fault, f.calls = ft, 0
}

// Calls returns how many calls the armed fault names have been made since
// Arm, the failed ones included.
func (f *FS) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// Reads returns how many ReadAt calls files of f have made.
func (f *FS) Reads() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads
}

// fail counts a call of kind op on name and returns ErrInjected if the
// armed fault names it.
func (f *FS) fail(op Op, name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fault.Ops&op == 0 {
		return nil
	}
	if ok, _ := path.Match(f.fault.Name, filepath.Base(name)); !ok {
		return nil
	}
	if f.calls++; f.fault.N == 0 || f.calls == f.fault.N {
		return ErrInjected
	}
	return nil
}

func (f *FS) OpenFile(name string, flag int) (framelog.File, error) {
	if flag&(os.O_WRONLY|os.O_RDWR) != 0 {
		if err := f.fail(OpenWrite, name); err != nil {
			return nil, err
		}
	}
	file, err := f.FS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return faultFile{file, f, name}, nil
}

func (f *FS) Rename(oldname, newname string) error {
	if err := f.fail(Rename, newname); err != nil {
		return err
	}
	return f.FS.Rename(oldname, newname)
}

type faultFile struct {
	framelog.File
	fs   *FS
	name string
}

func (f faultFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.fs.fail(WriteAt, f.name); err != nil {
		return 0, err
	}
	return f.File.WriteAt(p, off)
}

func (f faultFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	f.fs.reads++
	f.fs.mu.Unlock()
	return f.File.ReadAt(p, off)
}

func (f faultFile) Sync() error {
	if err := f.fs.fail(Sync, f.name); err != nil {
		return err
	}
	return f.File.Sync()
}
