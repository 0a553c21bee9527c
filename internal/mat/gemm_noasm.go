//go:build !amd64 && !arm64

package mat

// No packed microkernel on this architecture; gemmBT falls back to the
// pure-Go register-tiled path, which computes identical bits.
const (
	haveNEON   = false
	haveAVX2   = false
	haveAVX512 = false
)

func dotPack4x4(pack, b0, b1, b2, b3 *float64, k int, out *[16]float64) {
	panic("mat: dotPack4x4 without asm support")
}
