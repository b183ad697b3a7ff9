//go:build amd64 && !purego

package vec

// asmSupported marks binaries with the AVX2 backend compiled in; the
// runtime CPU check still gates execution.
const asmSupported = true

// detectNative reports whether the host CPU and OS can execute the AVX2
// backend: CPUID advertises AVX2 and OSXSAVE, and XGETBV confirms the OS
// saves the full YMM state on context switch.
func detectNative() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

// cpuidex executes CPUID with the given leaf and subleaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (requires OSXSAVE).
func xgetbv0() (eax, edx uint32)

// ---- 16-bit lane primitives ----
//
// All stubs require n to be a positive multiple of 16 (int16) or 32
// (uint8); the exported wrappers in vec.go enforce that before
// dispatching.

//go:noescape
func addSat16(dst, a, b *int16, n int)

//go:noescape
func subSatConst16(dst, a *int16, n, c int)

//go:noescape
func max16(dst, a, b *int16, n int)

//go:noescape
func maxConst16(dst, a *int16, n, c int)

//go:noescape
func maxInto16(dst, a *int16, n int)

//go:noescape
func set1x16(dst *int16, n, c int)

//go:noescape
func gather16(dst *int16, table *int16, idx *uint8, n int)

//go:noescape
func hmax16(a *int16, n int) int16

//go:noescape
func anyGE16(a *int16, n, threshold int) bool

//go:noescape
func anyGT16(a, b *int16, n int) bool

// ---- 8-bit lane primitives ----

//go:noescape
func addSatU8x(dst, a, b *uint8, n int)

//go:noescape
func subSatConstU8(dst, a *uint8, n, c int)

//go:noescape
func maxU8x(dst, a, b *uint8, n int)

//go:noescape
func maxIntoU8x(dst, a *uint8, n int)

//go:noescape
func set1U8x(dst *uint8, n, c int)

//go:noescape
func gatherU8x(dst *uint8, table *uint8, idx *uint8, n int)

//go:noescape
func hmaxU8(a *uint8, n int) uint8

//go:noescape
func anyGEU8x(a *uint8, n, threshold int) bool

//go:noescape
func anyGTU8x(a, b *uint8, n int) bool

// ---- fused column kernels ----
//
// One call advances a whole database column of the inter-task DP across
// every row of the current query tile, so the call cost amortises over
// rows x lanes cells; F, the diagonal and the score tracker stay in
// registers for the entire column. See step.go for the layout contracts
// and the portable reference semantics.

//go:noescape
func stepCol16SP(h, e, f, diag, maxv *int16, score *int16, seq *uint8, rows, lanes, qr, r int)

//go:noescape
func stepCol16QP(h, e, f, diag, maxv *int16, qp *int16, stride int, col *uint8, rows, lanes, qr, r int)

//go:noescape
func stepCol8SP(h, e, f, diag, maxv *uint8, score *uint8, seq *uint8, rows, lanes, bias, qr, r int)

//go:noescape
func stepCol8QP(h, e, f, diag, maxv *uint8, qp *uint8, stride int, col *uint8, rows, lanes, bias, qr, r int)

//go:noescape
func buildRows16(dst, table *int16, idx *uint8, nrows, lanes, stride int)

//go:noescape
func buildRows8(dst, table, idx *uint8, nrows, lanes, stride int)

//go:noescape
func stepStriped16(hLoad, hStore, e, maxv, prof *int16, t, gapOpen, qr, r int)
