//go:build !amd64 || purego

package dense

// cpuFeatures: this build reads no CPU feature.
func cpuFeatures() string { return "no assembly in this build" }
