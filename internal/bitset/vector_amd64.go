package bitset

// CPU detection and declarations of the amd64 vector kernels
// (vector_amd64.s).

// hasVector reports AVX-512 F/DQ/VL with the OS saving the opmask and
// all 32 ZMM registers (XCR0 bits 1, 2, 5, 6, 7), plus BMI2.
func hasVector() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	if ecx1&osxsave == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const (
		bmi2     = 1 << 8
		avx512f  = 1 << 16
		avx512dq = 1 << 17
		avx512vl = 1 << 31
	)
	const want = bmi2 | avx512f | avx512dq | avx512vl
	return ebx7&want == want
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// mergeMaskedAVX512 is mergeMaskedGo eight words per instruction, the
// tail under a load/store mask; len(dst) must be at least len(src).
//
//go:noescape
func mergeMaskedAVX512(dst, src []uint64, eff uint64) (grew, full uint64)
