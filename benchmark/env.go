package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// fingerprint says where and on what a result was measured; it rides
// on every child result, trace, baseline and selfcheck file.
type fingerprint struct {
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GOGC       string         `json:"gogc"`
	Kernel     string         `json:"kernel"`
	Seed       uint64         `json:"seed,omitempty"`
	Rounds     int            `json:"rounds,omitempty"`
	Smoke      bool           `json:"smoke,omitempty"`
	Sizes      map[string]int `json:"sizes,omitempty"`
}

func fingerprintOf(c *runCtx, o options) fingerprint {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return fingerprint{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gogc,
		Kernel:     kernel(),
		Seed:       c.seed,
		Rounds:     c.w.Rounds,
		Smoke:      o.smoke,
		Sizes:      c.sizes,
	}
}

func (f fingerprint) String() string {
	return fmt.Sprintf("commit %s, %s, nproc %d, GOMAXPROCS %d, GOGC %s, kernel %s, seed %d, rounds %d, sizes %v",
		f.Commit, f.GoVersion, f.NumCPU, f.GOMAXPROCS, f.GOGC, f.Kernel, f.Seed, f.Rounds, f.Sizes)
}

// commit is the checked-out revision, "unknown" outside a git checkout
// (the acceptance driver runs from an exported tree).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func kernel() string {
	buf, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(buf))
}
