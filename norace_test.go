//go:build !race

package tiamat_test

const raceEnabled = false
