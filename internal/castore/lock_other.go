//go:build !(linux || darwin || freebsd || netbsd || openbsd || dragonfly)

package castore

import "os"

// packLocks reports that this platform has no lock lockPack can take,
// so no writer takes over another's pack: each makes its own.
const packLocks = false

// lockPack reports every lock as held.
func lockPack(*os.File) bool { return false }
