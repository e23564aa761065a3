//go:build !race

package dense

const raceBuild = false
