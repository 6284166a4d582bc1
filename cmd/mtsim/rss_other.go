//go:build !linux

package main

// peakRSS reports no figure off Linux: ru_maxrss is in KiB there but in
// bytes on macOS, and absent on Windows, so none is guessed.
func peakRSS() (uint64, bool) { return 0, false }
