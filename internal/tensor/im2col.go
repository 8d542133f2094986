package tensor

import "math"

// Convolution operands. No convolution builds a patch matrix: its GEMM
// reads the (padded) channel-last input in place, row i (output pixel
// (i/outW, i%outW)) through a per-conv table of offsets past the pixel's
// window corner. fp32 keeps the (channel, kernel row, kernel column) K
// order it has always summed in (convA), so every sum rounds as before.
// int8 orders K (kernel row, kernel column, channel), so that a K pair is
// two channels of one pixel, two contiguous bytes: the input is quantized
// straight into a zero-bordered copy whose channel count is made even with
// a zero channel (quantizePadInto, convPairs), and the weights are packed
// in the same order with zero rows for it (QuantizeConvWeights).

// padInto copies the h×w×c input x into the zero-bordered
// (h+2p)×(w+2p)×c copy dst. Every element of dst is written, so a recycled
// workspace buffer needs no prior clearing. An x shorter than its h·w·c
// elements panics: the row copies slice x, and a slice expression may reach
// past len up to cap, so the last element is indexed first.
func padInto(dst, x []float32, h, w, c, p int) {
	_ = x[h*w*c-1]
	row, border := w*c, p*c
	i := 0
	clear(dst[:p*(row+2*border)+border])
	i += p*(row+2*border) + border
	for y := 0; y < h; y++ {
		copy(dst[i:i+row], x[y*row:(y+1)*row])
		i += row
		if y < h-1 {
			clear(dst[i : i+2*border])
			i += 2 * border
		}
	}
	clear(dst[i:])
}

// quantizePadInto quantizes the h×w×c input x with 1/scale inv straight
// into the zero-bordered (h+2p)×(w+2p)×cp int8 copy dst, whose channels
// past c are zero; every element of dst is written. Padding quantizes to 0
// (zero-point 0), so quantize-then-pad equals pad-then-quantize.
func quantizePadInto(dst []int8, x []float32, h, w, c, cp, p int, inv float32) {
	_ = x[h*w*c-1]
	wp := w + 2*p
	clear(dst[:(p*wp+p)*cp])
	i := (p*wp + p) * cp
	for y := 0; y < h; y++ {
		for px := y * w * c; px < (y+1)*w*c; px += c {
			q := dst[i : i+cp : i+cp]
			for ch, v := range x[px : px+c] {
				q[ch] = quantOne(float32(v * inv))
			}
			for ch := c; ch < cp; ch++ {
				q[ch] = 0
			}
			i += cp
		}
		if y < h-1 {
			clear(dst[i : i+2*p*cp])
			i += 2 * p * cp
		}
	}
	clear(dst[i:])
}

// rowGeom locates the rows of an in-place GEMM operand: row i starts at
// origin(i) = (i/cols)·rowStride + (i%cols)·colStride. A convolution's row
// is a row of cols output pixels, stride input pixels apart.
type rowGeom struct {
	cols, rowStride, colStride int
}

// convA returns the in-place fp32 GEMM operand of a convolution over the
// hp×wp×c input in src, which already holds any padding: K element
// (channel, kernel row, kernel column) of a pixel sits off[kk] =
// (row·wp + column)·c + channel past its window corner. off must hold
// c·kh·kw entries; every one is written. The last entry is the largest
// (kw ≤ wp), which gemm's bounds check relies on.
func convA(src []float32, off []int32, c, hp, wp, kh, kw, stride, outW int) gemmA {
	if hp*wp*c > math.MaxInt32 {
		panic("tensor: conv input too large for int32 offsets")
	}
	off = off[:c*kh*kw]
	i := 0
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				off[i] = int32((ky*wp+kx)*c + ch)
				i++
			}
		}
	}
	return gemmA{data: src, off: off, rowGeom: rowGeom{outW, stride * wp * c, stride * c}}
}

// convPairs returns the in-place int8 GEMM operand of a convolution over
// the hp×wp×cp quantized input in src (cp even, padding included): K pair
// (kernel row, kernel column, channels c, c+1) of a pixel sits off[p] =
// (row·wp + column)·cp + c past its window corner. off must hold
// kh·kw·cp/2 entries; every one is written, in increasing order.
func convPairs(src []int8, off []int32, cp, hp, wp, kh, kw, stride, outW int) i8A {
	if hp*wp*cp > math.MaxInt32 {
		panic("tensor: conv input too large for int32 offsets")
	}
	off = off[:kh*kw*cp/2]
	i := 0
	for ky := 0; ky < kh; ky++ {
		for kx := 0; kx < kw; kx++ {
			for ch := 0; ch < cp; ch += 2 {
				off[i] = int32((ky*wp+kx)*cp + ch)
				i++
			}
		}
	}
	return i8A{data: src, off: off, rowGeom: rowGeom{outW, stride * wp * cp, stride * cp}}
}
