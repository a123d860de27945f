package main

import "syscall"

// statfsMagic returns the filesystem type magic of the filesystem holding dir.
func statfsMagic(dir string) (int64, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return 0, err
	}
	return int64(st.Type), nil
}
