package linalg

// GreedyColoring partitions the vertices of the sparsity graph of a
// symmetric CSR matrix (vertices 0..n-1, an edge wherever A_ij ≠ 0,
// i ≠ j) into independent sets by first-fit greedy coloring in
// increasing vertex order. The invariant the colored-update runtime
// builds on: no two vertices in the same class are adjacent, so the
// spins of one class can update concurrently within a round without
// reading each other's fresh values. For a graph with maximum degree d
// at most d+1 classes are produced. Each class lists its vertices in
// increasing order; the classes themselves are ordered by first
// appearance. The result is a pure function of the sparsity pattern —
// no randomness — so it is identical across runs and worker counts.
func (c *CSR) GreedyColoring() [][]int {
	color := make([]int, c.n)
	for i := range color {
		color[i] = -1
	}
	// stamp[cc] == v marks color cc as used by a neighbor of v; a stamp
	// array avoids clearing a bitmap per vertex.
	var stamp []int
	var classes [][]int
	for v := 0; v < c.n; v++ {
		for k := c.rowPtr[v]; k < c.rowPtr[v+1]; k++ {
			u := int(c.colIdx[k])
			if u == v {
				continue // diagonal entries are not adjacency
			}
			if cu := color[u]; cu >= 0 {
				stamp[cu] = v + 1 // +1: zero value must not collide with v=0
			}
		}
		cc := 0
		for cc < len(stamp) && stamp[cc] == v+1 {
			cc++
		}
		if cc == len(stamp) {
			stamp = append(stamp, 0)
			classes = append(classes, nil)
		}
		color[v] = cc
		classes[cc] = append(classes[cc], v)
	}
	return classes
}
