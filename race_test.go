//go:build race

package tiamat_test

// raceEnabled reports a -race build, whose sync.Pool drops some of what it
// is given back.
const raceEnabled = true
