//go:build !linux

package store

import "os"

// fdatasync falls back to a full File.Sync where the platform's syscall
// package has no Fdatasync (darwin, the BSDs, windows).
func fdatasync(f *os.File) error { return f.Sync() }
