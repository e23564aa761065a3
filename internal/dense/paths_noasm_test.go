//go:build !amd64 || purego

package dense

// hostPaths lists the kernel paths this build can run: the Go loops only.
func hostPaths() []kernelPath { return []kernelPath{{name: "go"}} }

// use is a no-op: the Go loops are the only path of this build.
func (p kernelPath) use() (restore func()) { return func() {} }

// cpuFeatures: this build reads no CPU feature.
func cpuFeatures() string { return "no assembly in this build" }
