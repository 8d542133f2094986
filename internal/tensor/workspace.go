package tensor

// Workspace is a grow-only pool of scratch tensors for allocation-free
// inference hot loops. Get hands out a tensor backed by recycled memory
// (contents undefined — callers must fully overwrite it); Put returns it for
// reuse. Buffers are never shrunk or freed, so a workspace converges to the
// peak working set of the graphs run through it and then stops allocating.
// When no pooled buffer is large enough, Get grows the largest free buffer
// in place instead of allocating a fresh one alongside it — a workload whose
// shapes ramp up (e.g. growing batch sizes) keeps a bounded pool rather than
// stranding a trail of undersized buffers.
//
// Int8/int32 scratch for the quantized inference path is pooled separately
// via GetI8/PutI8 and GetI32/PutI32 with the same contract. A convolution's
// own per-call scratch, its tail vector and offset table, is neither: the
// workspace keeps one buffer of each (convScratch).
//
// Contract: a tensor obtained from Get must not be used after it is Put back
// (no aliasing of in-flight buffers), and a Workspace must not be shared
// between goroutines — use one workspace per goroutine. A nil *Workspace is
// valid everywhere one is accepted: Get falls back to fresh heap
// allocations and Put is a no-op, giving the old allocating behavior.
type Workspace struct {
	free  []*Tensor
	owned map[*Tensor]struct{}

	freeI8  []*I8
	ownedI8 map[*I8]struct{}

	freeI32  []*I32
	ownedI32 map[*I32]struct{}

	// tail and offs are the scratch of the convolution running on the
	// workspace (convScratch), kept apart from the pools.
	tail []float32
	offs []int32
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{
		owned:    make(map[*Tensor]struct{}),
		ownedI8:  make(map[*I8]struct{}),
		ownedI32: make(map[*I32]struct{}),
	}
}

// Get returns a tensor of the given shape drawing on pooled memory when a
// large-enough free buffer exists (best fit). The returned tensor's contents
// are undefined; every element must be written before being read.
func (w *Workspace) Get(shape ...int) *Tensor {
	// As in New, the panic message must not capture the shape slice, or the
	// variadic argument escapes and every Get call heap-allocates it.
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic("tensor: invalid non-positive dim in shape")
		}
		n *= d
	}
	if w == nil {
		return New(shape...)
	}
	best, largest := -1, -1
	for i, t := range w.free {
		if cap(t.Data) >= n && (best < 0 || cap(t.Data) < cap(w.free[best].Data)) {
			best = i
		}
		if largest < 0 || cap(t.Data) > cap(w.free[largest].Data) {
			largest = i
		}
	}
	var t *Tensor
	switch {
	case best >= 0:
		t = w.takeFree(best)
		t.Data = t.Data[:n]
	case largest >= 0:
		// Nothing fits: grow the largest free buffer rather than stranding
		// it behind a fresh allocation. Contents are undefined anyway, so no
		// copy is needed.
		t = w.takeFree(largest)
		t.Data = make([]float32, n)
	default:
		t = New(shape...)
	}
	t.Shape = append(t.Shape[:0], shape...)
	w.owned[t] = struct{}{}
	return t
}

// convScratch returns one convolution's scratch: 3·n floats for its
// resolved tail (bias, BN scales and shifts) over n output channels, and k
// int32s for its operand offset table. Only one conv runs on a workspace at
// a time, so each is a single grow-only buffer, regrown to four times the
// request: a ResNet's widths double stage by stage, so ResNet14 regrows
// each once or twice, not at every stage. Drawn from the pools, these small
// buffers cost a fresh workspace more than themselves: a pool grows its
// largest free buffer when none fits, so a longer offset table took the
// int8 accumulator's memory, and the tail vector held a buffer an
// activation would have reused.
func (w *Workspace) convScratch(n, k int) ([]float32, []int32) {
	if w == nil {
		return make([]float32, 3*n), make([]int32, k)
	}
	if cap(w.tail) < 3*n {
		w.tail = make([]float32, 4*3*n)
	}
	if cap(w.offs) < k {
		w.offs = make([]int32, 4*k)
	}
	return w.tail[:3*n], w.offs[:k]
}

func (w *Workspace) takeFree(i int) *Tensor {
	last := len(w.free) - 1
	t := w.free[i]
	w.free[i] = w.free[last]
	w.free[last] = nil
	w.free = w.free[:last]
	return t
}

// Put releases a tensor obtained from Get back to the pool. Tensors the
// workspace did not hand out (including ones already returned) are ignored,
// so callers never risk pooling memory they do not own.
func (w *Workspace) Put(t *Tensor) {
	if w == nil || t == nil {
		return
	}
	if _, ok := w.owned[t]; !ok {
		return
	}
	delete(w.owned, t)
	w.free = append(w.free, t)
}

// GetI8 is Get for int8 scratch tensors (quantized activations). Same
// pooling, growth, and ownership semantics as Get.
func (w *Workspace) GetI8(shape ...int) *I8 {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic("tensor: invalid non-positive dim in shape")
		}
		n *= d
	}
	if w == nil {
		return NewI8(shape...)
	}
	best, largest := -1, -1
	for i, t := range w.freeI8 {
		if cap(t.Data) >= n && (best < 0 || cap(t.Data) < cap(w.freeI8[best].Data)) {
			best = i
		}
		if largest < 0 || cap(t.Data) > cap(w.freeI8[largest].Data) {
			largest = i
		}
	}
	var t *I8
	switch {
	case best >= 0:
		t = w.takeFreeI8(best)
		t.Data = t.Data[:n]
	case largest >= 0:
		t = w.takeFreeI8(largest)
		t.Data = make([]int8, n)
	default:
		t = NewI8(shape...)
	}
	t.Shape = append(t.Shape[:0], shape...)
	if w.ownedI8 == nil { // workspaces predating the int pools
		w.ownedI8 = make(map[*I8]struct{})
	}
	w.ownedI8[t] = struct{}{}
	return t
}

func (w *Workspace) takeFreeI8(i int) *I8 {
	last := len(w.freeI8) - 1
	t := w.freeI8[i]
	w.freeI8[i] = w.freeI8[last]
	w.freeI8[last] = nil
	w.freeI8 = w.freeI8[:last]
	return t
}

// PutI8 releases an int8 tensor obtained from GetI8 back to the pool.
func (w *Workspace) PutI8(t *I8) {
	if w == nil || t == nil {
		return
	}
	if _, ok := w.ownedI8[t]; !ok {
		return
	}
	delete(w.ownedI8, t)
	w.freeI8 = append(w.freeI8, t)
}

// GetI32 is Get for int32 accumulator tensors. Same semantics as Get.
func (w *Workspace) GetI32(shape ...int) *I32 {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic("tensor: invalid non-positive dim in shape")
		}
		n *= d
	}
	if w == nil {
		return NewI32(shape...)
	}
	best, largest := -1, -1
	for i, t := range w.freeI32 {
		if cap(t.Data) >= n && (best < 0 || cap(t.Data) < cap(w.freeI32[best].Data)) {
			best = i
		}
		if largest < 0 || cap(t.Data) > cap(w.freeI32[largest].Data) {
			largest = i
		}
	}
	var t *I32
	switch {
	case best >= 0:
		t = w.takeFreeI32(best)
		t.Data = t.Data[:n]
	case largest >= 0:
		t = w.takeFreeI32(largest)
		t.Data = make([]int32, n)
	default:
		t = NewI32(shape...)
	}
	t.Shape = append(t.Shape[:0], shape...)
	if w.ownedI32 == nil { // workspaces predating the int pools
		w.ownedI32 = make(map[*I32]struct{})
	}
	w.ownedI32[t] = struct{}{}
	return t
}

func (w *Workspace) takeFreeI32(i int) *I32 {
	last := len(w.freeI32) - 1
	t := w.freeI32[i]
	w.freeI32[i] = w.freeI32[last]
	w.freeI32[last] = nil
	w.freeI32 = w.freeI32[:last]
	return t
}

// PutI32 releases an int32 tensor obtained from GetI32 back to the pool.
func (w *Workspace) PutI32(t *I32) {
	if w == nil || t == nil {
		return
	}
	if _, ok := w.ownedI32[t]; !ok {
		return
	}
	delete(w.ownedI32, t)
	w.freeI32 = append(w.freeI32, t)
}
