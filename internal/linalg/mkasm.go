//go:build ignore

// mkasm writes kernels_amd64.s, the SSE2 forms of the bit-exact inner
// loops: the L·S neighbour-row gather (lsWalk), the SᵀP sweep blocks of
// the TripleProd walk (stp*) and the DOrtho multi-dot (dDot8) and
// multi-axpy (sub*Pairs). Run it
// from this directory with
//
//	go run mkasm.go -out kernels_amd64.s
//
// Every kernel gives each XMM lane one output element and applies to it
// exactly the scalar Go kernel's operations in the same order — MULPD,
// ADDPD, SUBPD, never a fused multiply-add — so the two agree bit for bit.
// SSE2 is the amd64 baseline, so nothing is dispatched on CPU features.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
)

// maxPairs is the widest L·S walk in column pairs: 14 XMM accumulators,
// leaving X14 for the degree and X15 for the row load.
const maxPairs = 14

var buf bytes.Buffer

func emit(format string, args ...any) { fmt.Fprintf(&buf, format+"\n", args...) }

func main() {
	out := flag.String("out", "kernels_amd64.s", "file to write")
	flag.Parse()
	emit("// Code generated by mkasm.go; DO NOT EDIT.")
	emit("")
	emit("#include \"textflag.h\"")
	lsWalk()
	for _, pairs := range []int{4, 1} {
		for _, cols := range []int{2, 1} {
			stp(pairs, cols)
		}
	}
	dDot8()
	sub8()
	sub2()
	sub1()
	if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// lsWalk emits
//
//	func lsWalk(offsets *int64, adj *int32, deg, srm, dst *float64, lo, hi, rowBytes, dstStride, w int)
//
// which writes dst_i[c] = deg_i·srm_i[c] − Σ_{u∈adj(i)} srm_u[c] for the
// w ≥ 2 columns c of one walk and every vertex i in [lo, hi) of an
// unweighted graph. srm points at the walk's first column of row 0 (rows
// are rowBytes apart), dst at that column of vertex lo (columns are
// dstStride floats apart). The walk keeps ⌈w/2⌉ column pairs in
// registers; for odd w the last pair starts one column early, so its low
// lane recomputes the previous pair's high lane with the same operations
// and stores the same bits.
func lsWalk() {
	emit("")
	emit("// func lsWalk(offsets *int64, adj *int32, deg, srm, dst *float64, lo, hi, rowBytes, dstStride, w int)")
	emit("TEXT ·lsWalk(SB), NOSPLIT, $0-80")
	emit("\tMOVQ offsets+0(FP), SI")
	emit("\tMOVQ adj+8(FP), DI")
	emit("\tMOVQ deg+16(FP), R8")
	emit("\tMOVQ srm+24(FP), R9")
	emit("\tMOVQ dst+32(FP), R10")
	emit("\tMOVQ lo+40(FP), AX")
	emit("\tMOVQ rowBytes+56(FP), R11")
	emit("\tMOVQ dstStride+64(FP), R12")
	emit("\tSHLQ $3, R12")
	emit("\tMOVQ w+72(FP), R13")
	emit("\t// R10 addresses vertex i's output as (R10)(i*8).")
	emit("\tMOVQ AX, BX")
	emit("\tSHLQ $3, BX")
	emit("\tSUBQ BX, R10")
	emit("\t// The last pair is columns w−2, w−1: R14 its byte offset in a row,")
	emit("\t// R15 its byte offset in the output.")
	emit("\tLEAQ -2(R13), R14")
	emit("\tMOVQ R14, R15")
	emit("\tSHLQ $3, R14")
	emit("\tIMULQ R12, R15")
	emit("\t// R13 = ⌈w/2⌉ pairs.")
	emit("\tINCQ R13")
	emit("\tSHRQ $1, R13")
	for p := 1; p <= maxPairs; p++ {
		emit("\tCMPQ R13, $%d", p)
		emit("\tJEQ walk%d", p)
	}
	emit("\tRET")
	for p := 1; p <= maxPairs; p++ {
		lsWalkShape(p)
	}
}

// lsWalkShape emits the vertex loop of the pairs-wide walk: the
// neighbour rows summed into the accumulators, then dst = deg·self − sums
// column by column.
func lsWalkShape(pairs int) {
	l, last := fmt.Sprintf("walk%d", pairs), pairs-1
	emit("%s:", l)
	emit("\tCMPQ AX, hi+48(FP)")
	emit("\tJGE %s_done", l)
	emit("\tMOVQ (SI)(AX*8), CX")
	emit("\tMOVQ 8(SI)(AX*8), DX")
	for p := 0; p < pairs; p++ {
		emit("\tXORPS X%d, X%d", p, p)
	}
	emit("\tCMPQ CX, DX")
	emit("\tJGE %s_store", l)
	emit("%s_edge:", l)
	emit("\tMOVLQSX (DI)(CX*4), BX")
	emit("\tIMULQ R11, BX")
	emit("\tADDQ R9, BX")
	for p := 0; p < pairs; p++ {
		if p == last {
			emit("\tMOVUPD (BX)(R14*1), X15")
		} else {
			emit("\tMOVUPD %d(BX), X15", 16*p)
		}
		emit("\tADDPD X15, X%d", p)
	}
	emit("\tINCQ CX")
	emit("\tCMPQ CX, DX")
	emit("\tJLT %s_edge", l)
	emit("%s_store:", l)
	emit("\tMOVSD (R8)(AX*8), X14")
	emit("\tUNPCKLPD X14, X14")
	emit("\tMOVQ AX, BX")
	emit("\tIMULQ R11, BX")
	emit("\tADDQ R9, BX")
	emit("\tLEAQ (R10)(AX*8), CX")
	for p := 0; p < last; p++ {
		emit("\tMOVUPD %d(BX), X15", 16*p)
		emit("\tMULPD X14, X15")
		emit("\tSUBPD X%d, X15", p)
		emit("\tMOVLPD X15, (CX)")
		emit("\tADDQ R12, CX")
		emit("\tMOVHPD X15, (CX)")
		emit("\tADDQ R12, CX")
	}
	emit("\tMOVUPD (BX)(R14*1), X15")
	emit("\tMULPD X14, X15")
	emit("\tSUBPD X%d, X15", last)
	emit("\tLEAQ (R10)(AX*8), CX")
	emit("\tADDQ R15, CX")
	emit("\tMOVLPD X15, (CX)")
	emit("\tMOVHPD X15, (CX)(R12*1)")
	emit("\tINCQ AX")
	emit("\tJMP %s", l)
	emit("%s_done:", l)
	emit("\tRET")
}

// stp emits
//
//	func stp<2·pairs>x<cols>(s, p, o *float64, h, k8, pcol int)
//
// which extends the panel block o[j][i] += Σ_{r<h} s[r][i]·p[j][r] for
// 2·pairs rows i and cols columns j, each lane from its running value in
// ascending r. s is row-major with rows k8 bytes apart, p column-major
// with columns pcol bytes apart, o column-major with columns k8 bytes
// apart.
func stp(pairs, cols int) {
	name := fmt.Sprintf("stp%dx%d", 2*pairs, cols)
	acc := func(p, j int) int { return j*pairs + p }
	emit("")
	emit("// func %s(s, p, o *float64, h, k8, pcol int)", name)
	emit("TEXT ·%s(SB), NOSPLIT, $0-48", name)
	emit("\tMOVQ s+0(FP), SI")
	emit("\tMOVQ p+8(FP), DI")
	emit("\tMOVQ o+16(FP), DX")
	emit("\tMOVQ h+24(FP), CX")
	emit("\tMOVQ k8+32(FP), R8")
	emit("\tMOVQ pcol+40(FP), R9")
	emit("\tLEAQ (DX)(R8*1), R10")
	out := func(j int) string {
		if j == 0 {
			return "DX"
		}
		return "R10"
	}
	for j := 0; j < cols; j++ {
		for p := 0; p < pairs; p++ {
			emit("\tMOVUPD %d(%s), X%d", 16*p, out(j), acc(p, j))
		}
	}
	emit("\tTESTQ CX, CX")
	emit("\tJEQ %s_store", name)
	emit("%s_row:", name)
	emit("\tMOVSD (DI), X8")
	emit("\tUNPCKLPD X8, X8")
	if cols == 2 {
		emit("\tMOVSD (DI)(R9*1), X9")
		emit("\tUNPCKLPD X9, X9")
	}
	for p := 0; p < pairs; p++ {
		for j := 0; j < cols; j++ {
			emit("\tMOVUPD %d(SI), X10", 16*p)
			emit("\tMULPD X%d, X10", 8+j)
			emit("\tADDPD X10, X%d", acc(p, j))
		}
	}
	emit("\tADDQ $8, DI")
	emit("\tADDQ R8, SI")
	emit("\tDECQ CX")
	emit("\tJNE %s_row", name)
	emit("%s_store:", name)
	for j := 0; j < cols; j++ {
		for p := 0; p < pairs; p++ {
			emit("\tMOVUPD X%d, %d(%s)", acc(p, j), 16*p, out(j))
		}
	}
	emit("\tRET")
}

// dDot8 emits
//
//	func dDot8(c0, c1, c2, c3, c4, c5, c6, c7, w, d, out *float64, n int)
//
// which writes out[j] = Σ_{r<n} cj[r]·(d[r]·w[r]) (·w[r] when d is nil)
// for the eight columns, two columns per XMM register: each lane adds one
// product per row in ascending row order, from zero.
func dDot8() {
	cols := []string{"R8", "R9", "R10", "R11", "R12", "R13", "R14", "R15"}
	emit("")
	emit("// func dDot8(c0, c1, c2, c3, c4, c5, c6, c7, w, d, out *float64, n int)")
	emit("TEXT ·dDot8(SB), NOSPLIT, $0-96")
	for j, r := range cols {
		emit("\tMOVQ c%d+%d(FP), %s", j, 8*j, r)
	}
	emit("\tMOVQ w+64(FP), SI")
	emit("\tMOVQ d+72(FP), DI")
	emit("\tMOVQ n+88(FP), CX")
	for q := 0; q < 4; q++ {
		emit("\tXORPS X%d, X%d", q, q)
	}
	emit("\tXORQ AX, AX")
	emit("\tTESTQ CX, CX")
	emit("\tJEQ dot8_store")
	emit("\tTESTQ DI, DI")
	emit("\tJEQ dot8_plain")
	for _, weighted := range []bool{true, false} {
		l := "dot8_plain"
		if weighted {
			l = "dot8_weighted"
		}
		emit("%s:", l)
		emit("\tMOVSD (SI)(AX*8), X4")
		if weighted {
			emit("\tMULSD (DI)(AX*8), X4")
		}
		emit("\tUNPCKLPD X4, X4")
		for q := 0; q < 4; q++ {
			emit("\tMOVSD (%s)(AX*8), X5", cols[2*q])
			emit("\tMOVHPD (%s)(AX*8), X5", cols[2*q+1])
			emit("\tMULPD X4, X5")
			emit("\tADDPD X5, X%d", q)
		}
		emit("\tINCQ AX")
		emit("\tCMPQ AX, CX")
		emit("\tJLT %s", l)
		if weighted {
			emit("\tJMP dot8_store")
		}
	}
	emit("dot8_store:")
	emit("\tMOVQ out+80(FP), DX")
	for q := 0; q < 4; q++ {
		emit("\tMOVUPD X%d, %d(DX)", q, 16*q)
	}
	emit("\tRET")
}

// sub8 emits
//
//	func sub8Pairs(w, f, c0, c1, c2, c3, c4, c5, c6, c7 *float64, n int)
//
// which computes w[r] −= f[0]·c0[r] + … + f[7]·c7[r] for the even n rows,
// two rows per XMM register, the eight products summed left to right
// before the one subtraction.
func sub8() {
	emit("")
	emit("// func sub8Pairs(w, f, c0, c1, c2, c3, c4, c5, c6, c7 *float64, n int)")
	emit("TEXT ·sub8Pairs(SB), NOSPLIT, $0-88")
	emit("\tMOVQ w+0(FP), DI")
	emit("\tMOVQ f+8(FP), SI")
	cols := []string{"R8", "R9", "R10", "R11", "R12", "R13", "R14", "R15"}
	for j, r := range cols {
		emit("\tMOVQ c%d+%d(FP), %s", j, 16+8*j, r)
	}
	emit("\tMOVQ n+80(FP), CX")
	emit("\tSHLQ $3, CX")
	for j := range cols {
		emit("\tMOVSD %d(SI), X%d", 8*j, j)
		emit("\tUNPCKLPD X%d, X%d", j, j)
	}
	emit("\tXORQ AX, AX")
	emit("\tTESTQ CX, CX")
	emit("\tJEQ sub8_done")
	emit("sub8_row:")
	emit("\tMOVUPD (R8)(AX*1), X8")
	emit("\tMULPD X0, X8")
	for j := 1; j < len(cols); j++ {
		emit("\tMOVUPD (%s)(AX*1), X9", cols[j])
		emit("\tMULPD X%d, X9", j)
		emit("\tADDPD X9, X8")
	}
	emit("\tMOVUPD (DI)(AX*1), X9")
	emit("\tSUBPD X8, X9")
	emit("\tMOVUPD X9, (DI)(AX*1)")
	emit("\tADDQ $16, AX")
	emit("\tCMPQ AX, CX")
	emit("\tJLT sub8_row")
	emit("sub8_done:")
	emit("\tRET")
}

// sub2 emits
//
//	func sub2Pairs(w, f, c0, c1 *float64, n int)
//
// which computes w[r] −= f[0]·c0[r], then w[r] −= f[1]·c1[r], for the
// even n rows, two rows per XMM register.
func sub2() {
	emit("")
	emit("// func sub2Pairs(w, f, c0, c1 *float64, n int)")
	emit("TEXT ·sub2Pairs(SB), NOSPLIT, $0-40")
	emit("\tMOVQ w+0(FP), DI")
	emit("\tMOVQ f+8(FP), SI")
	emit("\tMOVQ c0+16(FP), R8")
	emit("\tMOVQ c1+24(FP), R9")
	emit("\tMOVQ n+32(FP), CX")
	emit("\tSHLQ $3, CX")
	emit("\tMOVSD (SI), X0")
	emit("\tUNPCKLPD X0, X0")
	emit("\tMOVSD 8(SI), X1")
	emit("\tUNPCKLPD X1, X1")
	emit("\tXORQ AX, AX")
	emit("\tTESTQ CX, CX")
	emit("\tJEQ sub2_done")
	emit("sub2_row:")
	emit("\tMOVUPD (DI)(AX*1), X2")
	emit("\tMOVUPD (R8)(AX*1), X3")
	emit("\tMULPD X0, X3")
	emit("\tSUBPD X3, X2")
	emit("\tMOVUPD (R9)(AX*1), X3")
	emit("\tMULPD X1, X3")
	emit("\tSUBPD X3, X2")
	emit("\tMOVUPD X2, (DI)(AX*1)")
	emit("\tADDQ $16, AX")
	emit("\tCMPQ AX, CX")
	emit("\tJLT sub2_row")
	emit("sub2_done:")
	emit("\tRET")
}

// sub1 emits
//
//	func sub1Pairs(w *float64, f0 float64, c0 *float64, n int)
//
// which computes w[r] −= f0·c0[r] for the even n rows, two rows per XMM
// register.
func sub1() {
	emit("")
	emit("// func sub1Pairs(w *float64, f0 float64, c0 *float64, n int)")
	emit("TEXT ·sub1Pairs(SB), NOSPLIT, $0-32")
	emit("\tMOVQ w+0(FP), DI")
	emit("\tMOVSD f0+8(FP), X0")
	emit("\tUNPCKLPD X0, X0")
	emit("\tMOVQ c0+16(FP), R8")
	emit("\tMOVQ n+24(FP), CX")
	emit("\tSHLQ $3, CX")
	emit("\tXORQ AX, AX")
	emit("\tTESTQ CX, CX")
	emit("\tJEQ sub1_done")
	emit("sub1_row:")
	emit("\tMOVUPD (DI)(AX*1), X2")
	emit("\tMOVUPD (R8)(AX*1), X3")
	emit("\tMULPD X0, X3")
	emit("\tSUBPD X3, X2")
	emit("\tMOVUPD X2, (DI)(AX*1)")
	emit("\tADDQ $16, AX")
	emit("\tCMPQ AX, CX")
	emit("\tJLT sub1_row")
	emit("sub1_done:")
	emit("\tRET")
}
