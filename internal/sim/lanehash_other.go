//go:build !amd64

package sim

// linkHashAVX512 is never selected off amd64 (bitset.HasVector is
// false); it stays the portable loop so a test that sets HasVector
// anyway still gets exact verdicts.
func linkHashAVX512(t *hashTable, key uint64) (drop, k1, k2 uint64) {
	return t.verdicts(key)
}
