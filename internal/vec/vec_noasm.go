//go:build !amd64 || purego

package vec

// asmSupported is false in binaries without the AVX2 backend (non-amd64
// hosts, or any host under the purego build tag); every native16/native8
// test then folds to false at compile time and the stubs below are
// unreachable.
const asmSupported = false

func detectNative() bool { return false }

func addSat16(dst, a, b *int16, n int)                      { panic("vec: no asm") }
func subSatConst16(dst, a *int16, n, c int)                 { panic("vec: no asm") }
func max16(dst, a, b *int16, n int)                         { panic("vec: no asm") }
func maxConst16(dst, a *int16, n, c int)                    { panic("vec: no asm") }
func maxInto16(dst, a *int16, n int)                        { panic("vec: no asm") }
func set1x16(dst *int16, n, c int)                          { panic("vec: no asm") }
func gather16(dst *int16, table *int16, idx *uint8, n int)  { panic("vec: no asm") }
func hmax16(a *int16, n int) int16                          { panic("vec: no asm") }
func anyGE16(a *int16, n, threshold int) bool               { panic("vec: no asm") }
func anyGT16(a, b *int16, n int) bool                       { panic("vec: no asm") }
func addSatU8x(dst, a, b *uint8, n int)                     { panic("vec: no asm") }
func subSatConstU8(dst, a *uint8, n, c int)                 { panic("vec: no asm") }
func maxU8x(dst, a, b *uint8, n int)                        { panic("vec: no asm") }
func maxIntoU8x(dst, a *uint8, n int)                       { panic("vec: no asm") }
func set1U8x(dst *uint8, n, c int)                          { panic("vec: no asm") }
func gatherU8x(dst *uint8, table *uint8, idx *uint8, n int) { panic("vec: no asm") }
func hmaxU8(a *uint8, n int) uint8                          { panic("vec: no asm") }
func anyGEU8x(a *uint8, n, threshold int) bool              { panic("vec: no asm") }
func anyGTU8x(a, b *uint8, n int) bool                      { panic("vec: no asm") }
func stepCol16SP(h, e, f, diag, maxv *int16, score *int16, seq *uint8, rows, lanes, qr, r int) {
	panic("vec: no asm")
}
func stepCol16QP(h, e, f, diag, maxv *int16, qp *int16, stride int, col *uint8, rows, lanes, qr, r int) {
	panic("vec: no asm")
}
func stepCol8SP(h, e, f, diag, maxv *uint8, score *uint8, seq *uint8, rows, lanes, bias, qr, r int) {
	panic("vec: no asm")
}
func stepCol8QP(h, e, f, diag, maxv *uint8, qp *uint8, stride int, col *uint8, rows, lanes, bias, qr, r int) {
	panic("vec: no asm")
}
func buildRows16(dst, table *int16, idx *uint8, nrows, lanes, stride int) { panic("vec: no asm") }
func buildRows8(dst, table, idx *uint8, nrows, lanes, stride int)         { panic("vec: no asm") }
func stepStriped16(hLoad, hStore, e, maxv, prof *int16, t, gapOpen, qr, r int) {
	panic("vec: no asm")
}
