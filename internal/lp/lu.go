package lp

import (
	"errors"
	"math"
	"slices"
)

// errSingular is returned by factorize when the basis matrix is
// numerically singular.
var errSingular = errors.New("lp: singular basis matrix")

// luEntry is one stored entry of an L or U column.
type luEntry struct {
	idx int // L: original row index; U: pivot position (row of U)
	val float64
}

// luFactors holds a sparse LU factorization with row partial pivoting:
// P·B = L·U, where P sends original row perm[k] to position k, L is unit
// lower triangular (stored without the unit diagonal, entries addressed by
// original row index) and U is upper triangular (stored by column, with the
// diagonal kept separately).
//
// A luFactors is also the workspace of its own factorization: factorize
// overwrites it in place and reuses every array, including the backing
// arrays of the L and U columns, so refactorizing one basis shape again
// allocates nothing.
type luFactors struct {
	m     int
	perm  []int // position -> original row
	pinv  []int // original row -> position
	lcols [][]luEntry
	ucols [][]luEntry // entries with idx < column position
	udiag []float64

	// scratch, all-zero (false) between calls
	work      []float64 // dense vector by original row
	touched   []int     // rows of work that may be nonzero
	isTouched []bool    // by original row
	reach     []int     // pivot positions a column depends on
}

const luDropTol = 1e-12

// inReachMark stands in pinv for a pivoted row whose position is already
// in the reach of the column being factored, so the symbolic step tests
// one array for both "pivoted" and "not yet reached".
const inReachMark = -2

// factorize overwrites f with the LU factors of the m×m matrix whose
// columns are given as parallel sparse (rowIdx, val) slices, colRows[j] and
// colVals[j] describing column j, or returns errSingular, after which f
// holds no usable factors.
//
// It is a left-looking column algorithm with a dense scratch vector and
// partial pivoting by maximum magnitude. Column j is scattered into the
// scratch and eliminated against the earlier pivots it depends on, which a
// Gilbert–Peierls symbolic step finds first: the pivot positions reachable
// in the graph of L (position k → pinv[r] for each entry r of L's column
// k) from the already-pivoted rows of column j. Its cost follows the
// nonzeros of L and of the column, not m: a unit (slack) column whose row
// is not yet pivoted has an empty reach, so an almost-all-slack basis
// factors in time linear in m.
//
// The numeric elimination then visits the reach in ascending position
// order, the order the plain sweep over all earlier positions uses, and L
// only has edges from a position to later ones, so that order is also a
// topological one. Every position outside the reach holds an exact zero
// in the scratch, which the plain sweep skips without touching anything.
// The two therefore perform the same floating-point operations in the
// same order, and the factors are bit-identical to the sweep's.
func (f *luFactors) factorize(m int, colRows [][]int, colVals [][]float64) error {
	f.resize(m)
	work, isTouched := f.work, f.isTouched
	perm, pinv, lcols := f.perm, f.pinv, f.lcols
	for i := range pinv {
		pinv[i] = -1
	}
	touched := f.touched[:0]

	for j := 0; j < m; j++ {
		// Scatter column j into the dense scratch and seed the reach with
		// its already-pivoted rows.
		rows, vals := colRows[j], colVals[j]
		reach := f.reach[:0]
		for k, r := range rows {
			if !isTouched[r] {
				isTouched[r] = true
				touched = append(touched, r)
			}
			work[r] += vals[k]
			if p := pinv[r]; p >= 0 {
				pinv[r] = inReachMark
				reach = append(reach, p)
			}
		}
		// Symbolic step: close the seed set under L's column graph. reach
		// doubles as the worklist; only the set matters, not the visit
		// order, because it is sorted below.
		for i := 0; i < len(reach); i++ {
			for _, le := range lcols[reach[i]] {
				if p := pinv[le.idx]; p >= 0 {
					pinv[le.idx] = inReachMark
					reach = append(reach, p)
				}
			}
		}
		slices.Sort(reach)
		// Numeric step: unmark the reach, then eliminate over it in pivot
		// order.
		for _, k := range reach {
			pinv[perm[k]] = k
		}
		f.ucols[j], touched = f.eliminate(reach, f.ucols[j][:0], touched)
		f.reach = reach
		// Pivot selection: maximum magnitude among unpivoted rows.
		best, bestRow := 0.0, -1
		for _, r := range touched {
			if pinv[r] >= 0 {
				continue
			}
			if a := math.Abs(work[r]); a > best {
				best = a
				bestRow = r
			}
		}
		if bestRow < 0 || best < 1e-11 {
			// Clean scratch before bailing out.
			for _, r := range touched {
				work[r] = 0
				isTouched[r] = false
			}
			f.touched = touched[:0]
			return errSingular
		}
		d := work[bestRow]
		perm[j] = bestRow
		pinv[bestRow] = j
		f.udiag[j] = d
		lcol := lcols[j][:0]
		for _, r := range touched {
			// Rows pivoted in earlier steps were zeroed during elimination;
			// bestRow's pinv was just set, excluding it here as well.
			if pinv[r] < 0 {
				if v := work[r]; math.Abs(v) > luDropTol {
					lcol = append(lcol, luEntry{idx: r, val: v / d})
				}
			}
			work[r] = 0
			isTouched[r] = false
		}
		lcols[j] = lcol
		touched = touched[:0]
	}
	f.touched = touched
	return nil
}

// eliminate subtracts from the scattered column in f.work the multiples of
// L's columns at the positions in reach, in the order given, appending the
// U entries to ucol and the rows it makes nonzero to touched. Positions
// whose value cancelled to (near) zero are skipped exactly as the plain
// sweep skips them.
func (f *luFactors) eliminate(reach []int, ucol []luEntry, touched []int) ([]luEntry, []int) {
	work := f.work
	for _, k := range reach {
		piv := f.perm[k]
		v := work[piv]
		if v == 0 || math.Abs(v) < luDropTol {
			continue
		}
		ucol = append(ucol, luEntry{idx: k, val: v})
		touched = scatterSub(work, f.isTouched, touched, f.lcols[k], v)
		work[piv] = 0
	}
	return ucol, touched
}

// scatterSub subtracts v·col from work and appends the rows it touches for
// the first time to touched, which has capacity for every row. It is kept
// free of allocation calls so its loop runs entirely in registers.
func scatterSub(work []float64, isTouched []bool, touched []int, col []luEntry, v float64) []int {
	nt, all := len(touched), touched[:cap(touched)]
	for _, le := range col {
		r := le.idx
		if !isTouched[r] {
			isTouched[r] = true
			all[nt] = r
			nt++
		}
		work[r] -= v * le.val
	}
	return all[:nt]
}

// resize sets f's dimension to m, reusing its arrays when their capacity
// suffices. The scratch arrays are all-zero between calls, so only the
// newly allocated ones need initialising, which make does.
func (f *luFactors) resize(m int) {
	f.m = m
	if cap(f.perm) >= m {
		f.perm, f.pinv, f.udiag = f.perm[:m], f.pinv[:m], f.udiag[:m]
		f.lcols, f.ucols = f.lcols[:m], f.ucols[:m]
		f.work, f.isTouched = f.work[:m], f.isTouched[:m]
		return
	}
	f.perm = make([]int, m)
	f.pinv = make([]int, m)
	f.udiag = make([]float64, m)
	f.lcols = make([][]luEntry, m)
	f.ucols = make([][]luEntry, m)
	f.work = make([]float64, m)
	f.isTouched = make([]bool, m)
	f.touched = make([]int, 0, m)
	f.reach = make([]int, 0, m)
}

// solve computes x with B x = v in place: v is both input and output, and
// is indexed by original row on input and by basis position on output.
// scratch must have length m; it is zeroed on return.
func (f *luFactors) solve(v []float64) {
	m := f.m
	// Forward: y = L^{-1} P v, computed in pivot order.
	w := f.work
	copy(w, v)
	for k := 0; k < m; k++ {
		val := w[f.perm[k]]
		v[k] = val
		if val == 0 {
			continue
		}
		for _, le := range f.lcols[k] {
			w[le.idx] -= val * le.val
		}
	}
	for i := range w {
		w[i] = 0
	}
	// Backward: solve U x = y with column-oriented substitution.
	for j := m - 1; j >= 0; j-- {
		xj := v[j] / f.udiag[j]
		v[j] = xj
		if xj == 0 {
			continue
		}
		for _, ue := range f.ucols[j] {
			v[ue.idx] -= ue.val * xj
		}
	}
}

// solveT computes y with Bᵀ y = c in place: c is indexed by basis position
// on input; the result is indexed by original row on output.
func (f *luFactors) solveT(c []float64) {
	m := f.m
	// Solve Uᵀ w = c (forward over positions).
	for j := 0; j < m; j++ {
		s := c[j]
		for _, ue := range f.ucols[j] {
			s -= ue.val * c[ue.idx]
		}
		c[j] = s / f.udiag[j]
	}
	// Solve Lᵀ z = w (backward over positions).
	for k := m - 1; k >= 0; k-- {
		s := c[k]
		for _, le := range f.lcols[k] {
			s -= le.val * c[f.pinv[le.idx]]
		}
		c[k] = s
	}
	// Scatter z from positions to original rows: y[perm[k]] = z[k].
	w := f.work
	for k := 0; k < m; k++ {
		w[f.perm[k]] = c[k]
	}
	copy(c, w)
	for i := range w {
		w[i] = 0
	}
}
