//go:build !unix

package mem

import "errors"

// sysMap fails where the standard library has no anonymous mapping;
// NewSpace then allocates from the Go heap at every size.
func sysMap(int) ([]byte, error) { return nil, errors.ErrUnsupported }

func sysUnmap([]byte) error { return nil }
