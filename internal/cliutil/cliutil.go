// Package cliutil holds the small helpers shared by the cmd/ tools:
// pprof profiling hooks for the long-running CLIs, indented JSON emission
// for -json output modes, and the explicit-zero check of the tools whose
// flags bind into a spec that reads zero as "use the default".
package cliutil

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
)

// StartCPUProfile begins a CPU profile written to path and returns the
// function that stops it. With an empty path it is a no-op.
func StartCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteMemProfile writes an up-to-date heap profile to path. With an empty
// path it is a no-op.
func WriteMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("mem profile: %w", err)
	}
	defer f.Close()
	runtime.GC() // flush recent frees so the profile reflects live heap
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("mem profile: %w", err)
	}
	return nil
}

// WriteJSON writes v to w as indented JSON with a trailing newline.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// ExplicitZero returns the first of the named flags that the command line
// set to zero, or "" when none was.
func ExplicitZero(names ...string) (zero string) {
	flag.Visit(func(f *flag.Flag) {
		g, ok := f.Value.(flag.Getter)
		if ok && zero == "" && slices.Contains(names, f.Name) && (g.Get() == 0 || g.Get() == 0.0) {
			zero = f.Name
		}
	})
	return zero
}
