package main

import (
	"runtime"
	"syscall"
)

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x9123683E: "btrfs", 0x6969: "nfs",
		0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "unknown"
}

// settle brings a run to the same state before each measured phase: it
// writes the page cache's dirty pages to disk, so the set-up's writes
// and any earlier run's do not compete with the phase's, and collects
// the set-up's garbage.
func settle() {
	syscall.Sync()
	runtime.GC()
}
