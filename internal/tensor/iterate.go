package tensor

// Iterator walks a view in row-major order, yielding the linear buffer index
// of each element. It allocates once and then iterates without further
// allocation, so it is usable from kernels (though the VM prefers the
// specialized loops below).
type Iterator struct {
	view   View
	coords []int
	index  int
	remain int
	first  bool
}

// NewIterator returns an iterator positioned before the first element.
func NewIterator(v View) *Iterator {
	return &Iterator{
		view:   v,
		coords: make([]int, v.NDim()),
		index:  v.Offset,
		remain: v.Size(),
		first:  true,
	}
}

// NewIteratorAt returns an iterator positioned before element pos of the
// view's row-major order, so the first Next yields element pos. Parallel
// sweeps use it to hand each worker a disjoint [lo, hi) slice of the
// iteration space without walking the prefix.
func NewIteratorAt(v View, pos int) *Iterator {
	it := &Iterator{
		view:   v,
		coords: make([]int, v.NDim()),
		index:  v.Offset,
		remain: v.Size() - pos,
		first:  true,
	}
	for d := v.NDim() - 1; d >= 0; d-- {
		c := pos % v.Shape[d]
		pos /= v.Shape[d]
		it.coords[d] = c
		it.index += c * v.Strides[d]
	}
	return it
}

// Next advances to the next element, returning false when exhausted.
func (it *Iterator) Next() bool {
	if it.remain == 0 {
		return false
	}
	if it.first {
		it.first = false
		it.remain--
		return true
	}
	// Odometer increment from the innermost dimension outward.
	for d := it.view.NDim() - 1; d >= 0; d-- {
		it.coords[d]++
		it.index += it.view.Strides[d]
		if it.coords[d] < it.view.Shape[d] {
			it.remain--
			return true
		}
		it.index -= it.coords[d] * it.view.Strides[d]
		it.coords[d] = 0
	}
	// Scalar (0-d) views have exactly one element, consumed above.
	it.remain--
	return it.remain >= 0 && it.view.NDim() == 0
}

// Index returns the linear buffer index of the current element.
func (it *Iterator) Index() int { return it.index }

// ZipIndices walks two same-shaped views in lockstep, calling fn with the
// pair of linear indices for each element position.
func ZipIndices(a, b View, fn func(ia, ib int)) {
	ia, ib := NewIterator(a), NewIterator(b)
	for ia.Next() && ib.Next() {
		fn(ia.Index(), ib.Index())
	}
}

// ZipIndicesRange walks row-major positions [lo, hi) of two same-shaped
// views in lockstep. Splitting [0, Size()) into disjoint ranges and calling
// this from one goroutine per range visits exactly the pairs ZipIndices
// visits serially.
func ZipIndicesRange(a, b View, lo, hi int, fn func(ia, ib int)) {
	if lo >= hi {
		return
	}
	ia, ib := NewIteratorAt(a, lo), NewIteratorAt(b, lo)
	for n := hi - lo; n > 0 && ia.Next() && ib.Next(); n-- {
		fn(ia.Index(), ib.Index())
	}
}

// ZipIndices3 walks three same-shaped views in lockstep.
func ZipIndices3(a, b, c View, fn func(ia, ib, ic int)) {
	ia, ib, ic := NewIterator(a), NewIterator(b), NewIterator(c)
	for ia.Next() && ib.Next() && ic.Next() {
		fn(ia.Index(), ib.Index(), ic.Index())
	}
}
