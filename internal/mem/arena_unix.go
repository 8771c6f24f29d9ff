//go:build unix

package mem

import "syscall"

// sysMap returns n bytes of anonymous private memory: zero, and not
// resident until touched.
func sysMap(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

func sysUnmap(b []byte) error { return syscall.Munmap(b) }
