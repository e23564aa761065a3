//go:build race

package dense

// raceBuild reports that the race detector is on: it makes sync.Pool
// drop puts at random, so allocation counts mean nothing.
const raceBuild = true
