package tensor

// im2col lowering, shared by the float32 and int8 pipelines via a type
// parameter (both are pure element moves, so the generic code is exactly the
// scalar code twice-instantiated — results stay bit-identical to the naive
// triple loop by construction).
//
// There is one lowering for every shape. A padded convolution first copies
// its input once into a zero-bordered scratch plane per channel (padInto),
// so every patch element afterwards is in bounds: each output pixel is
// lowered with unconditional moves, one kw-long run per (pixel, channel,
// kernel row), the 3×3 run unrolled. The per-element bounds tests and the
// separate border path that profiles once showed at a third of the lowering
// are gone; the padding copy costs one pass over the input.

// im2colElem constrains the element types im2col is instantiated for.
type im2colElem interface{ ~float32 | ~int8 }

// padInto copies the c planes of h×w in x into the zero-bordered
// (h+2p)×(w+2p) planes of dst. Every element of dst is written, so a
// recycled workspace buffer needs no prior clearing.
func padInto[T im2colElem](dst, x []T, c, h, w, p int) {
	wp := w + 2*p
	i := 0
	for ch := 0; ch < c; ch++ {
		clear(dst[i : i+p*wp+p])
		i += p*wp + p
		for y := 0; y < h; y++ {
			src := x[(ch*h+y)*w : (ch*h+y+1)*w]
			copy(dst[i:i+w], src)
			i += w
			if y < h-1 {
				clear(dst[i : i+2*p])
				i += 2 * p
			}
		}
		clear(dst[i : i+p+p*wp])
		i += p + p*wp
	}
}

// lowerInto writes the patch matrix of the c planes of hp×wp in src, which
// already hold any padding, into cd: row (oy, ox) holds the c·kh·kw window
// at (oy·stride, ox·stride) in (channel, kernel row, kernel column) order.
func lowerInto[T im2colElem](cd, src []T, c, hp, wp, kh, kw, stride, outH, outW int) {
	plane := hp * wp
	idx := 0
	if kh == 3 && kw == 3 {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				s := oy*stride*wp + ox*stride
				for ch := 0; ch < c; ch++ {
					d := cd[idx : idx+9 : idx+9]
					r0 := src[s : s+3 : s+3]
					r1 := src[s+wp : s+wp+3 : s+wp+3]
					r2 := src[s+2*wp : s+2*wp+3 : s+2*wp+3]
					d[0], d[1], d[2] = r0[0], r0[1], r0[2]
					d[3], d[4], d[5] = r1[0], r1[1], r1[2]
					d[6], d[7], d[8] = r2[0], r2[1], r2[2]
					idx += 9
					s += plane
				}
			}
		}
		return
	}
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			s0 := oy*stride*wp + ox*stride
			for ch := 0; ch < c; ch++ {
				s := s0 + ch*plane
				for ky := 0; ky < kh; ky++ {
					d := cd[idx : idx+kw : idx+kw]
					r := src[s : s+kw : s+kw]
					for i := range d {
						d[i] = r[i]
					}
					idx += kw
					s += wp
				}
			}
		}
	}
}

// im2col lowers the c×h×w input xd into cd. scratch holds the padded planes
// when pad > 0 (c·(h+2·pad)·(w+2·pad) elements) and is unused otherwise.
func im2col[T im2colElem](cd, xd, scratch []T, c, h, w, kh, kw, stride, pad, outH, outW int) {
	if pad > 0 {
		padInto(scratch, xd, c, h, w, pad)
		xd, h, w = scratch, h+2*pad, w+2*pad
	}
	lowerInto(cd, xd, c, h, w, kh, kw, stride, outH, outW)
}
