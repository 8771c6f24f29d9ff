//go:build tufast_never_set

package genpkg

// Sum is declared again here: the package type-checks only if the loader
// reads the build constraint above and leaves this file out.
func Sum() {}
