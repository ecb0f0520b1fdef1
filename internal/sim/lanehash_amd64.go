package sim

// linkHashAVX512 is hashTable.verdicts eight lanes per instruction
// (lanehash_amd64.s); laneKernels selects it when bitset.HasVector.
//
//go:noescape
func linkHashAVX512(t *hashTable, key uint64) (drop, k1, k2 uint64)
