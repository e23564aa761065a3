//go:build !unix

package tensor

import "os"

// mapFile maps nothing off unix: every file is read into memory.
func mapFile(*os.File) ([]byte, func()) { return nil, nil }
