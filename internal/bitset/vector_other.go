//go:build !amd64

package bitset

func hasVector() bool { return false }

// mergeMaskedAVX512 is never selected off amd64 (HasVector is false);
// it stays the portable loop so a test that sets HasVector anyway
// still gets exact results.
func mergeMaskedAVX512(dst, src []uint64, eff uint64) (grew, full uint64) {
	return mergeMaskedGo(dst, src, eff)
}
