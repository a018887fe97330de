package tensor

// Iterator walks a view in row-major order, yielding the linear buffer index
// of each element. It allocates once and then iterates without further
// allocation. The VM's sweeps run compiled loop nests instead; iterators
// serve the tensor helpers and the VM's reference interpreter.
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
