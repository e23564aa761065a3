//go:build !race

package par

const raceBuild = false
