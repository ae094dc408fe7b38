//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package castore

import (
	"os"
	"syscall"
)

// packLocks reports that lockPack can tell a held pack from a free one.
const packLocks = true

// lockPack takes f's exclusive advisory lock without waiting and
// reports whether it got it. The lock lasts until f is closed, by the
// writer or by its process's exit, so a pack whose lock is free has no
// live writer.
func lockPack(f *os.File) bool {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB) == nil
}
