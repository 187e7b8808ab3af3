package store

import (
	"os"
	"syscall"
)

// fdatasync flushes f's data and only the metadata needed to read it
// back — not timestamps — retrying on EINTR as File.Sync does.
func fdatasync(f *os.File) error {
	fd := int(f.Fd())
	for {
		err := syscall.Fdatasync(fd)
		if err != syscall.EINTR {
			if err != nil {
				return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: err}
			}
			return nil
		}
	}
}
