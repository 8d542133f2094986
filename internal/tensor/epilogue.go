package tensor

import "math"

// Epilogue is the per-output-channel tail of a convolution: add the bias,
// then, when Gamma is set, inference batch norm in BatchNormInto's
// x*scale + shift form with the same scale and shift, then, when Res is
// set, the residual, then, when ReLU is set, the rectifier. Each step
// rounds to float32 in that order, so the tail is bit-identical to bias,
// then BatchNormInto, then AddInto, then ReLUInto.
//
// The GEMM applies it to each band of finished product rows, in SIMD on
// the band's kernel family (tailAVX2, tailSSE; tail.scalar on the portable
// kernel and past the vector width), so the product is the activation.
type Epilogue struct {
	Bias                   []float32 // nil adds zero
	Gamma, Beta, Mean, Var []float32 // batch-norm statistics; nil Gamma skips the norm
	Eps                    float32
	Res                    []float32 // residual laid out like the output; nil adds nothing
	ReLU                   bool
}

// Tail steps, the bits of tail.mode the assembly tails test.
const (
	tailInt8 = 1 << iota // the product is an int8 GEMM's int32 sums, scaled by d
	tailBN               // multiply by scale, add shift
	tailRes              // add the residual
	tailReLU             // rectify
)

// tail is an Epilogue resolved for one n-column product. The zero tail
// leaves a product as it is.
type tail struct {
	vec  []float32 // per-column bias, then with BN the scales and the shifts
	res  []float32
	mode int
}

// resolve folds e into vec (3·n elements) for an m×n product.
func (e *Epilogue) resolve(vec []float32, m, n int) tail {
	if (e.Bias != nil && len(e.Bias) != n) || (e.Gamma != nil &&
		(len(e.Gamma) != n || len(e.Beta) != n || len(e.Mean) != n || len(e.Var) != n)) {
		panic("tensor: conv epilogue parameter length mismatch")
	}
	if e.Res != nil && len(e.Res) != m*n {
		panic("tensor: conv epilogue residual length mismatch")
	}
	t := tail{vec: vec[:3*n], res: e.Res}
	if e.Bias != nil {
		copy(t.vec, e.Bias)
	} else {
		clear(t.vec[:n])
	}
	if e.Gamma != nil {
		t.mode |= tailBN
		for o := 0; o < n; o++ {
			t.vec[n+o], t.vec[2*n+o] = bnScaleShift(e.Gamma[o], e.Beta[o], e.Mean[o], e.Var[o], e.Eps)
		}
	}
	if e.Res != nil {
		t.mode |= tailRes
	}
	if e.ReLU {
		t.mode |= tailReLU
	}
	return t
}

// apply finishes rows [i0, i1) of the n-column product in dst: from dst
// itself, or, when acc is non-nil, from an int8 GEMM's int32 sums in acc
// dequantized as float32(acc)·d. The kernel family's SIMD tail takes the
// columns up to its vector width, tail.scalar the rest.
func (t *tail) apply(dst []float32, acc []int32, d float32, i0, i1, n int, kern Kernel) {
	if t.vec == nil || i0 == i1 {
		return
	}
	// The SIMD tails do not bounds-check: index each band's last element.
	_ = dst[i1*n-1]
	mode, src, res := t.mode, (*int32)(nil), (*float32)(nil)
	if acc != nil {
		mode, src = mode|tailInt8, &acc[i0*n]
		_ = acc[i1*n-1]
	}
	if t.res != nil {
		res = &t.res[i0*n]
		_ = t.res[i1*n-1]
	}
	w := 0
	switch kern {
	case KernelAVX2:
		w = n &^ 7
		if w > 0 {
			tailAVX2(&dst[i0*n], src, res, &t.vec[0], d, i1-i0, n, w, mode)
		}
	case KernelSSE:
		w = n &^ 3
		if w > 0 {
			tailSSE(&dst[i0*n], src, res, &t.vec[0], d, i1-i0, n, w, mode)
		}
	}
	if w < n {
		t.scalar(dst, acc, d, i0, i1, w, n)
	}
}

// scalar is the portable tail of columns [j0, n) of rows [i0, i1), the
// same float32 operations in the same order as the SIMD tails.
func (t *tail) scalar(dst []float32, acc []int32, d float32, i0, i1, j0, n int) {
	bias, scale, shift := t.vec[:n], t.vec[n:2*n], t.vec[2*n:3*n]
	var pass uint32
	if t.mode&tailReLU == 0 {
		pass = ^uint32(0)
	}
	for i := i0; i < i1; i++ {
		for j := j0; j < n; j++ {
			var x float32
			if acc != nil {
				x = float32(float32(acc[i*n+j]) * d)
			} else {
				x = dst[i*n+j]
			}
			x += bias[j]
			if t.mode&tailBN != 0 {
				x = float32(x*scale[j]) + shift[j]
			}
			if t.res != nil {
				x += t.res[i*n+j]
			}
			dst[i*n+j] = reluPass(x, pass)
		}
	}
}

// bnScaleShift folds one channel of inference batch norm into the affine
// x*scale + shift that BatchNormInto and the conv Epilogue both apply, so
// the two cannot drift apart.
func bnScaleShift(gamma, beta, mean, variance, eps float32) (scale, shift float32) {
	scale = gamma / float32(math.Sqrt(float64(variance+eps)))
	shift = beta - float32(mean*scale)
	return scale, shift
}

// reluPass is the rectifier without a data-dependent branch (a v < 0 test
// mispredicts on about half of all activations). It zeroes exactly the
// negative non-NaN values, the bit patterns in (0x80000000, 0xff800000], so
// -0 and NaN pass through just as they do a v < 0 compare. pass is ORed
// into the mask: all ones returns v unchanged, zero applies the ReLU. The
// SIMD tails compute the same mask as (u−1) < 0xff800000, signed.
func reluPass(v float32, pass uint32) float32 {
	u := math.Float32bits(v)
	neg := uint32((uint64(u-0x80000001) - 0x7f800000) >> 63) // 1 iff negative non-NaN
	return math.Float32frombits(u & ((neg - 1) | pass))
}
