package tensor

import (
	"math/rand"
	"os"
	"testing"
)

// kernelMatrix is every forceable kernel; tests iterate it and skip entries
// the host cannot run (the graceful-skip path `make check` relies on when a
// CI host lacks AVX2).
var kernelMatrix = []Kernel{KernelNoAsm, KernelSSE, KernelAVX2}

// withKernel forces k for the duration of fn, restoring the previous
// selection afterwards. Returns false (after logging) when the host does not
// support k.
func withKernel(t *testing.T, k Kernel, fn func()) bool {
	t.Helper()
	prev := ActiveKernel()
	if err := ForceKernel(k); err != nil {
		t.Logf("kernel %v unsupported on this host: %v (skipping)", k, err)
		return false
	}
	defer func() {
		if err := ForceKernel(prev); err != nil {
			t.Fatalf("restoring kernel %v: %v", prev, err)
		}
	}()
	fn()
	return true
}

// parityShapes straddles every kernel edge for both tile families: sub-tile,
// single row/column, 4-row and 16-column boundaries of the AVX2 tile, 2-row
// and 8-column boundaries of the SSE tile, and multi-panel K.
var parityShapes = [][3]int{
	{1, 1, 1},
	{1, 7, 1},            // single row and single column
	{4, 3, 16},           // exactly one 4×16 AVX2 tile
	{2, 3, 8},            // exactly one 2×8 SSE tile
	{5, 9, 17},           // row remainder 1, col remainder 1 past the AVX2 tile
	{6, 11, 24},          // row remainder 2 → falls to SSE stripe; col = tile + 8
	{7, 13, 31},          // remainders at every level: 4+2+1 rows, 16+8+7 cols
	{3, 5, 7},            // all prime, everything is remainder
	{17, 13, 9},          // cols below the AVX2 tile entirely
	{5, gemmKC + 13, 11}, // K spans two panels → accumulate path
	{4, 2*gemmKC + 1, 17},
	{33, 40, 50},
}

// TestKernelParityMatrix is the cross-kernel contract test: every kernel ×
// every edge shape × float32-and-int8. Float32 must be bit-identical to the
// naive k-ascending reference; int8 must be exactly equal (integer sums have
// one answer). Unsupported kernels skip gracefully.
func TestKernelParityMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	type fcase struct {
		m, k, n int
		a, b    *Tensor
		want    *Tensor
	}
	type qcase struct {
		m, k, n int
		a       *I8
		b       *PackedI8
		want    *I32
	}
	fcases := make([]fcase, 0, len(parityShapes))
	qcases := make([]qcase, 0, len(parityShapes))
	for _, s := range parityShapes {
		m, k, n := s[0], s[1], s[2]
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		fcases = append(fcases, fcase{m, k, n, a, b, naiveMatMul(a, b, m, k, n)})
		qa := randI8(rng, m, k)
		qb := randI8(rng, k, n)
		qcases = append(qcases, qcase{m, k, n, qa, PackI8(qb, k, n), naiveMatMulI8(qa, qb, m, k, n)})
	}
	ran := 0
	for _, kern := range kernelMatrix {
		kern := kern
		ok := withKernel(t, kern, func() {
			if got := ActiveKernel(); got != kern {
				t.Fatalf("ActiveKernel() = %v after forcing %v", got, kern)
			}
			for _, c := range fcases {
				got := MatMul(c.a, c.b, c.m, c.k, c.n)
				assertSameBits(t, kern.String()+" "+formatShape(c.m, c.k, c.n), got.Data, c.want.Data)
			}
			for _, c := range qcases {
				got := NewI32(c.m, c.n)
				mulI8(got, c.a, c.b, c.m)
				for i := range got.Data {
					if got.Data[i] != c.want.Data[i] {
						t.Fatalf("%v int8 %s: element %d = %d, want %d",
							kern, formatShape(c.m, c.k, c.n), i, got.Data[i], c.want.Data[i])
					}
				}
			}
		})
		if ok {
			ran++
		}
	}
	if ran == 0 {
		t.Fatal("no kernel could be forced — even the portable kernel must run")
	}
}

func randI8(rng *rand.Rand, shape ...int) *I8 {
	t := NewI8(shape...)
	for i := range t.Data {
		t.Data[i] = int8(rng.Intn(255) - 127)
	}
	return t
}

// naiveMatMulI8 is the exactness reference for the quantized GEMM.
func naiveMatMulI8(a, b *I8, m, k, n int) *I32 {
	c := NewI32(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s int32
			for kk := 0; kk < k; kk++ {
				s += int32(a.Data[i*k+kk]) * int32(b.Data[kk*n+j])
			}
			c.Data[i*n+j] = s
		}
	}
	return c
}

// mulI8 runs the int8 GEMM on the row-major m×K A: through MatMulI8Into
// when K is even, else through matMulI8 on a copy of A widened by a zero
// column, whose last pair meets PackI8's zero pad row.
func mulI8(dst *I32, a *I8, b *PackedI8, m int) {
	k := b.K
	if k%2 == 0 {
		MatMulI8Into(dst, a, b, m)
		return
	}
	wide := make([]int8, m*(k+1))
	for i := 0; i < m; i++ {
		copy(wide[i*(k+1):], a.Data[i*k:(i+1)*k])
	}
	off := make([]int32, (k+1)/2)
	for p := range off {
		off[p] = int32(2 * p)
	}
	matMulI8(dst.Data, i8A{data: wide, off: off, rowGeom: rowGeom{cols: 1, rowStride: k + 1}}, b, m, ActiveKernel())
}

// TestMatMulI8ExactEdges pins the int8 GEMM to naiveMatMulI8 under every
// forced kernel, on the operands and shapes that tell a correct kernel from
// a plausible wrong one: all-±127 operands (from K = 3 on, an int16
// accumulator or a saturating multiply-add overflows), odd K (PackI8's zero
// pad row; K = 1) next to K = 2, about half of A zero with every third row
// all zero (ReLU output), N below, at and straddling 16, and M remainders
// of the 4-row tile. dst starts poisoned and is longer than M·N: every
// element of the product must be written, none past it. MatMulI8Into
// takes even K only and must refuse an odd one.
func TestMatMulI8ExactEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	random := func(r, c int) int8 { return int8(rng.Intn(255) - 127) }
	operands := []struct {
		name string
		a, b func(r, c int) int8
	}{
		{"+127·+127", func(r, c int) int8 { return 127 }, func(r, c int) int8 { return 127 }},
		{"-127·-127", func(r, c int) int8 { return -127 }, func(r, c int) int8 { return -127 }},
		{"-127·+127", func(r, c int) int8 { return -127 }, func(r, c int) int8 { return 127 }},
		{"±127 alternating", func(r, c int) int8 { return int8(127 - 254*((r+c)%2)) },
			func(r, c int) int8 { return int8(254*(c%2) - 127) }},
		{"random", random, random},
		{"relu", func(r, c int) int8 {
			if r%3 == 0 || rng.Intn(2) == 0 {
				return 0
			}
			return random(r, c)
		}, random},
	}
	shapes := [][3]int{
		{4, 1, 16}, {5, 2, 16}, {7, 3, 17}, {1, 3, 1}, {3, 4, 15},
		{8, 25, 16}, {9, 25, 33}, {6, 144, 16}, {13, 288, 31}, {4, 577, 64}, {2, 5, 48},
	}
	type qcase struct {
		label string
		m     int
		a     *I8
		b     *PackedI8
		want  *I32
	}
	var cases []qcase
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		for _, op := range operands {
			a, b := fillI8(m, k, op.a), fillI8(k, n, op.b)
			cases = append(cases, qcase{op.name + " " + formatShape(m, k, n), m, a, PackI8(b, k, n),
				naiveMatMulI8(a, b, m, k, n)})
		}
	}
	for _, kern := range kernelMatrix {
		withKernel(t, kern, func() {
			for _, c := range cases {
				got := poisonedI32(len(c.want.Data) + 17)
				mulI8(got, c.a, c.b, c.m)
				assertI32Prefix(t, kern.String()+" "+c.label, got.Data, c.want.Data)
			}
		})
	}
	odd := cases[len(operands)*2] // {7, 3, 17}
	if panicOf(func() { MatMulI8Into(NewI32(7, 17), odd.a, odd.b, 7) }) == nil {
		t.Error("MatMulI8Into accepted an odd K")
	}
}

// TestMatMulI8PackedReuse runs one packed B against several A operands of
// different heights, each into a freshly poisoned dst, under every forced
// kernel: the kernels must neither modify the packed form nor depend on
// what dst held.
func TestMatMulI8PackedReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const k, n = 25, 24
	b := randI8(rng, k, n)
	packed := PackI8(b, k, n)
	snapshot := append([]int16(nil), packed.Data...)
	for _, kern := range kernelMatrix {
		withKernel(t, kern, func() {
			for _, m := range []int{9, 4, 1, 16} {
				a := randI8(rng, m, k)
				want := naiveMatMulI8(a, b, m, k, n)
				for round := 0; round < 2; round++ {
					got := poisonedI32(m*n + 3)
					mulI8(got, a, packed, m)
					assertI32Prefix(t, kern.String()+" reuse "+formatShape(m, k, n), got.Data, want.Data)
				}
			}
		})
	}
	for i, v := range packed.Data {
		if v != snapshot[i] {
			t.Fatalf("packed B element %d changed from %d to %d", i, snapshot[i], v)
		}
	}
}

func fillI8(rows, cols int, f func(r, c int) int8) *I8 {
	t := NewI8(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			t.Data[r*cols+c] = f(r, c)
		}
	}
	return t
}

// i32Poison marks dst elements no kernel has written.
const i32Poison = -0x5a5a5a5b

func poisonedI32(n int) *I32 {
	t := NewI32(n)
	for i := range t.Data {
		t.Data[i] = i32Poison
	}
	return t
}

// assertI32Prefix checks got starts with want and is poison after it.
func assertI32Prefix(t *testing.T, label string, got, want []int32) {
	t.Helper()
	for i, v := range got {
		w := int32(i32Poison)
		if i < len(want) {
			w = want[i]
		}
		if v != w {
			t.Fatalf("%s: element %d = %d, want %d", label, i, v, w)
		}
	}
}

// TestKernelParallelParityMatrix forces each kernel through the parallel
// row-band path and checks bit-identity against that kernel's serial result.
func TestKernelParallelParityMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m, k, n := 23, 300, 21
	a := randTensor(rng, m, k)
	b := randTensor(rng, k, n)
	want := naiveMatMul(a, b, m, k, n)
	for _, kern := range kernelMatrix {
		kern := kern
		withKernel(t, kern, func() {
			for _, workers := range []int{2, 5, m + 1} {
				got := make([]float32, m*n)
				matMulParallel(got, plainA(a.Data, k), b.Data, m, k, n, workers, kern, tail{})
				assertSameBits(t, kern.String()+" parallel workers="+itoa(workers), got, want.Data)
			}
		})
	}
}

func TestParseKernel(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Kernel
	}{
		{"auto", KernelAuto}, {"AUTO", KernelAuto}, {"", KernelAuto},
		{"noasm", KernelNoAsm}, {"scalar", KernelNoAsm},
		{"sse", KernelSSE}, {"avx2", KernelAVX2}, {" avx2 ", KernelAVX2},
	} {
		got, err := ParseKernel(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseKernel(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseKernel("avx512"); err == nil {
		t.Error("ParseKernel(avx512) succeeded, want error")
	}
	for _, k := range []Kernel{KernelAuto, KernelNoAsm, KernelSSE, KernelAVX2, Kernel(99)} {
		if rt, err := ParseKernel(k.String()); k != Kernel(99) && (err != nil || rt != k) {
			t.Errorf("round trip %v → %q → %v, %v", k, k.String(), rt, err)
		}
	}
}

func TestForceKernelAuto(t *testing.T) {
	prev := ActiveKernel()
	defer ForceKernel(prev)
	if err := ForceKernel(KernelAuto); err != nil {
		t.Fatalf("ForceKernel(auto): %v", err)
	}
	got := ActiveKernel()
	if got == KernelAuto {
		t.Fatal("auto must resolve to a concrete kernel")
	}
	if !KernelSupported(got) {
		t.Fatalf("auto resolved to unsupported kernel %v", got)
	}
}

// TestKernelEnvOverride documents the ROSE_GEMM_KERNEL contract: when the
// variable named a supported kernel at process start, it is active; when it
// was invalid or unsupported, KernelInitErr records why and the best
// supported kernel runs instead.
func TestKernelEnvOverride(t *testing.T) {
	v := os.Getenv("ROSE_GEMM_KERNEL")
	if v == "" {
		t.Skip("ROSE_GEMM_KERNEL not set")
	}
	want, err := ParseKernel(v)
	if err != nil || (want != KernelAuto && !KernelSupported(want)) {
		if KernelInitErr() == nil {
			t.Fatalf("ROSE_GEMM_KERNEL=%q is unusable but KernelInitErr() is nil", v)
		}
		return
	}
	if KernelInitErr() != nil {
		t.Fatalf("ROSE_GEMM_KERNEL=%q is valid but init recorded %v", v, KernelInitErr())
	}
	// A later ForceKernel (e.g. from another test) may have moved the
	// selection; only assert when we are first.
}
