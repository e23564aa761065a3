//go:build !race

package trsvd

const raceBuild = false
