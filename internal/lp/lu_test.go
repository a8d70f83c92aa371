package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// denseToCols converts a dense m×m matrix (row-major) to the parallel
// sparse column slices luFactorize expects.
func denseToCols(m int, a [][]float64) ([][]int, [][]float64) {
	rows := make([][]int, m)
	vals := make([][]float64, m)
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			if a[i][j] != 0 {
				rows[j] = append(rows[j], i)
				vals[j] = append(vals[j], a[i][j])
			}
		}
	}
	return rows, vals
}

func matVec(a [][]float64, x []float64) []float64 {
	m := len(a)
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			out[i] += a[i][j] * x[j]
		}
	}
	return out
}

func matTVec(a [][]float64, x []float64) []float64 {
	m := len(a)
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			out[j] += a[i][j] * x[i]
		}
	}
	return out
}

func TestLUSolveIdentity(t *testing.T) {
	a := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	rows, vals := denseToCols(3, a)
	f, err := luFactorize(3, rows, vals)
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{3, -1, 7}
	want := append([]float64(nil), v...)
	f.solve(v)
	for i := range v {
		if math.Abs(v[i]-want[i]) > 1e-12 {
			t.Fatalf("solve identity: got %v want %v", v, want)
		}
	}
}

func TestLUSolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(12)
		a := make([][]float64, m)
		for i := range a {
			a[i] = make([]float64, m)
			for j := range a[i] {
				if rng.Float64() < 0.5 {
					a[i][j] = rng.NormFloat64()
				}
			}
			a[i][i] += float64(m) + 1 // diagonal dominance ⇒ nonsingular
		}
		xTrue := make([]float64, m)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		rows, vals := denseToCols(m, a)
		f, err := luFactorize(m, rows, vals)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		v := matVec(a, xTrue)
		f.solve(v)
		for i := range v {
			if math.Abs(v[i]-xTrue[i]) > 1e-8 {
				t.Fatalf("trial %d: solve mismatch at %d: got %g want %g", trial, i, v[i], xTrue[i])
			}
		}

		w := matTVec(a, xTrue)
		f.solveT(w)
		for i := range w {
			if math.Abs(w[i]-xTrue[i]) > 1e-8 {
				t.Fatalf("trial %d: solveT mismatch at %d: got %g want %g", trial, i, w[i], xTrue[i])
			}
		}
	}
}

func TestLUPermutedMatrix(t *testing.T) {
	// Requires row pivoting: zero on the leading diagonal.
	a := [][]float64{
		{0, 2, 0},
		{1, 0, 0},
		{0, 0, 5},
	}
	rows, vals := denseToCols(3, a)
	f, err := luFactorize(3, rows, vals)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3}
	v := matVec(a, x)
	f.solve(v)
	for i := range v {
		if math.Abs(v[i]-x[i]) > 1e-10 {
			t.Fatalf("got %v want %v", v, x)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := [][]float64{
		{1, 2},
		{2, 4}, // rank 1
	}
	rows, vals := denseToCols(2, a)
	if _, err := luFactorize(2, rows, vals); err == nil {
		t.Fatal("expected singular error")
	}
	// All-zero column.
	b := [][]float64{
		{1, 0},
		{0, 0},
	}
	rows, vals = denseToCols(2, b)
	if _, err := luFactorize(2, rows, vals); err == nil {
		t.Fatal("expected singular error for zero column")
	}
}

func TestEtaFtranBtranMatchRefactor(t *testing.T) {
	// Build a basis, apply a column replacement via eta, and compare
	// FTRAN/BTRAN results against a fresh factorization of the updated
	// matrix.
	rng := rand.New(rand.NewSource(11))
	m := 6
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, m)
		for j := range a[i] {
			a[i][j] = rng.NormFloat64()
		}
		a[i][i] += 8
	}
	rows, vals := denseToCols(m, a)
	lu, err := luFactorize(m, rows, vals)
	if err != nil {
		t.Fatal(err)
	}
	bf := &basisFactor{lu: lu}

	// Replace basis slot r with a new column q.
	r := 2
	newCol := make([]float64, m)
	for i := range newCol {
		newCol[i] = rng.NormFloat64()
	}
	newCol[r] += 10
	// w = B⁻¹ a_q
	w := append([]float64(nil), newCol...)
	bf.ftran(w)
	bf.push(r, w)

	// Updated matrix: column r of a replaced by newCol.
	a2 := make([][]float64, m)
	for i := range a2 {
		a2[i] = append([]float64(nil), a[i]...)
		a2[i][r] = newCol[i]
	}
	rows2, vals2 := denseToCols(m, a2)
	lu2, err := luFactorize(m, rows2, vals2)
	if err != nil {
		t.Fatal(err)
	}
	bf2 := &basisFactor{lu: lu2}

	v := make([]float64, m)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	v1 := append([]float64(nil), v...)
	v2 := append([]float64(nil), v...)
	bf.ftran(v1)
	bf2.ftran(v2)
	for i := range v1 {
		if math.Abs(v1[i]-v2[i]) > 1e-8 {
			t.Fatalf("ftran mismatch at %d: eta %g fresh %g", i, v1[i], v2[i])
		}
	}

	c1 := append([]float64(nil), v...)
	c2 := append([]float64(nil), v...)
	bf.btran(c1)
	bf2.btran(c2)
	for i := range c1 {
		if math.Abs(c1[i]-c2[i]) > 1e-8 {
			t.Fatalf("btran mismatch at %d: eta %g fresh %g", i, c1[i], c2[i])
		}
	}
}

func TestCSCBuildAndDuplicates(t *testing.T) {
	tb := newTripletBuilder(3, 2)
	tb.add(0, 0, 1)
	tb.add(2, 0, 2)
	tb.add(0, 0, 3) // duplicate, must sum to 4
	tb.add(1, 1, 5)
	tb.add(0, 1, 0) // zero is dropped
	a := tb.build()
	if a.nCols() != 2 || a.nRows != 3 {
		t.Fatalf("dims = %dx%d", a.nRows, a.nCols())
	}
	if a.nnz() != 3 {
		t.Fatalf("nnz = %d, want 3", a.nnz())
	}
	y := []float64{1, 1, 1}
	if d := a.colDot(0, y); math.Abs(d-6) > 1e-12 {
		t.Errorf("colDot(0) = %g, want 6", d)
	}
	out := make([]float64, 3)
	a.addColTimes(1, 2, out)
	if out[1] != 10 {
		t.Errorf("addColTimes: out = %v", out)
	}
}

// luFactorize factors the m×m matrix given by columns into fresh factors
// with the production factorization.
func luFactorize(m int, colRows [][]int, colVals [][]float64) (*luFactors, error) {
	f := &luFactors{}
	if err := f.factorize(m, colRows, colVals); err != nil {
		return nil, err
	}
	return f, nil
}

// luFactorizeDense is the plain left-looking factorization that scans every
// earlier pivot position for every column. It is kept as the oracle the
// symbolic-reach factorization must match bit for bit.
func luFactorizeDense(m int, colRows [][]int, colVals [][]float64) (*luFactors, error) {
	f := &luFactors{
		m:     m,
		perm:  make([]int, m),
		pinv:  make([]int, m),
		lcols: make([][]luEntry, m),
		ucols: make([][]luEntry, m),
		udiag: make([]float64, m),
		work:  make([]float64, m),
	}
	for i := range f.pinv {
		f.pinv[i] = -1
	}
	work := f.work
	touched := make([]int, 0, m)
	isTouched := make([]bool, m)

	for j := 0; j < m; j++ {
		rows, vals := colRows[j], colVals[j]
		for k, r := range rows {
			if !isTouched[r] {
				isTouched[r] = true
				touched = append(touched, r)
			}
			work[r] += vals[k]
		}
		var ucol []luEntry
		for k := 0; k < j; k++ {
			piv := f.perm[k]
			v := work[piv]
			if v == 0 || math.Abs(v) < luDropTol {
				continue
			}
			ucol = append(ucol, luEntry{idx: k, val: v})
			for _, le := range f.lcols[k] {
				r := le.idx
				if !isTouched[r] {
					isTouched[r] = true
					touched = append(touched, r)
				}
				work[r] -= v * le.val
			}
			work[piv] = 0
		}
		best, bestRow := 0.0, -1
		for _, r := range touched {
			if f.pinv[r] >= 0 {
				continue
			}
			if a := math.Abs(work[r]); a > best {
				best = a
				bestRow = r
			}
		}
		if bestRow < 0 || best < 1e-11 {
			for _, r := range touched {
				work[r] = 0
				isTouched[r] = false
			}
			return nil, errSingular
		}
		d := work[bestRow]
		f.perm[j] = bestRow
		f.pinv[bestRow] = j
		f.udiag[j] = d
		f.ucols[j] = ucol
		var lcol []luEntry
		for _, r := range touched {
			if f.pinv[r] < 0 {
				if v := work[r]; math.Abs(v) > luDropTol {
					lcol = append(lcol, luEntry{idx: r, val: v / d})
				}
			}
			work[r] = 0
			isTouched[r] = false
		}
		f.lcols[j] = lcol
		touched = touched[:0]
	}
	return f, nil
}

// luShape names a generator of square test bases.
type luShape int

const (
	shapeAllUnit      luShape = iota // every column a signed unit column
	shapeSlack97                     // 97% unit columns, the rest path-like
	shapeDense5                      // 5% random density plus a dominant diagonal
	shapeTriangular                  // lower triangular, rows and columns permuted
	shapeNearSingular                // dependent columns perturbed around the pivot threshold
	numLUShapes
)

func (s luShape) String() string {
	return [...]string{"all-unit", "slack97", "dense5", "permuted-triangular", "near-singular"}[s]
}

// sparseBasis is a square matrix in the column form luFactorize takes.
type sparseBasis struct {
	m    int
	rows [][]int
	vals [][]float64
}

func (b *sparseBasis) add(j, r int, v float64) {
	b.rows[j] = append(b.rows[j], r)
	b.vals[j] = append(b.vals[j], v)
}

// randomBasis draws an m×m basis of the given shape. Columns come in a
// random order, as basis slots do after simplex pivots.
func randomBasis(shape luShape, m int, rng *rand.Rand) *sparseBasis {
	b := &sparseBasis{m: m, rows: make([][]int, m), vals: make([][]float64, m)}
	rowPerm := rng.Perm(m)
	switch shape {
	case shapeAllUnit:
		for j := 0; j < m; j++ {
			v := 1.0
			if rng.Intn(2) == 0 {
				v = -1
			}
			b.add(j, rowPerm[j], v)
		}
	case shapeSlack97:
		// A path column carries its own row (the slack it replaced) and a
		// few other rows, all with coefficient 1, like a path's links.
		for j := 0; j < m; j++ {
			if rng.Float64() >= 0.03 {
				b.add(j, j, 1)
				continue
			}
			seen := map[int]bool{j: true}
			b.add(j, j, 1)
			for t := 0; t < 2+rng.Intn(6); t++ {
				r := rng.Intn(m)
				if !seen[r] {
					seen[r] = true
					b.add(j, r, 1)
				}
			}
		}
	case shapeDense5:
		for j := 0; j < m; j++ {
			for i := 0; i < m; i++ {
				v := 0.0
				if rng.Float64() < 0.05 {
					v = rng.NormFloat64()
				}
				if i == j {
					v += float64(m)
				}
				if v != 0 {
					b.add(j, i, v)
				}
			}
		}
	case shapeTriangular:
		for j := 0; j < m; j++ {
			b.add(j, rowPerm[j], 1+rng.Float64())
			for i := j + 1; i < m; i++ {
				if rng.Float64() < 0.2 {
					b.add(j, rowPerm[i], rng.NormFloat64())
				}
			}
		}
	case shapeNearSingular:
		// Sparse columns, then a few replaced by sums of earlier ones plus
		// a perturbation straddling the pivot and drop thresholds, so some
		// eliminations cancel to exact or tiny values.
		for j := 0; j < m; j++ {
			b.add(j, j, 1+rng.Float64())
			for t := 0; t < 2; t++ {
				b.add(j, rng.Intn(m), rng.NormFloat64())
			}
		}
		eps := []float64{0, 1e-13, 5e-12, 2e-11, 1e-9, 1e-6, 1e-3}
		for t := 0; t < 1+rng.Intn(2) && m > 2; t++ {
			j := 2 + rng.Intn(m-2)
			a, c := rng.Intn(j), rng.Intn(j)
			dense := make([]float64, m)
			for k, r := range b.rows[a] {
				dense[r] += b.vals[a][k]
			}
			for k, r := range b.rows[c] {
				dense[r] += 0.5 * b.vals[c][k]
			}
			dense[rng.Intn(m)] += eps[rng.Intn(len(eps))]
			b.rows[j], b.vals[j] = nil, nil
			for r, v := range dense {
				if v != 0 {
					b.add(j, r, v)
				}
			}
		}
	}
	rng.Shuffle(m, func(i, j int) {
		b.rows[i], b.rows[j] = b.rows[j], b.rows[i]
		b.vals[i], b.vals[j] = b.vals[j], b.vals[i]
	})
	return b
}

// sameFactors reports the first difference between two factorizations of
// one matrix, comparing every value by its bit pattern.
func sameFactors(got, want *luFactors) string {
	if got.m != want.m {
		return fmt.Sprintf("m %d vs %d", got.m, want.m)
	}
	for k := 0; k < want.m; k++ {
		if got.perm[k] != want.perm[k] || got.pinv[k] != want.pinv[k] {
			return fmt.Sprintf("perm/pinv at %d: %d/%d vs %d/%d", k, got.perm[k], got.pinv[k], want.perm[k], want.pinv[k])
		}
		if math.Float64bits(got.udiag[k]) != math.Float64bits(want.udiag[k]) {
			return fmt.Sprintf("udiag[%d] %v vs %v", k, got.udiag[k], want.udiag[k])
		}
		for _, c := range []struct {
			name string
			g, w []luEntry
		}{{"L", got.lcols[k], want.lcols[k]}, {"U", got.ucols[k], want.ucols[k]}} {
			if len(c.g) != len(c.w) {
				return fmt.Sprintf("%s column %d has %d entries vs %d", c.name, k, len(c.g), len(c.w))
			}
			for i := range c.w {
				if c.g[i].idx != c.w[i].idx || math.Float64bits(c.g[i].val) != math.Float64bits(c.w[i].val) {
					return fmt.Sprintf("%s column %d entry %d: %+v vs %+v", c.name, k, i, c.g[i], c.w[i])
				}
			}
		}
	}
	return ""
}

// checkAgainstDense factors b with the reach factorization, into the
// reused workspace f, and with the dense-sweep oracle, and fails on any
// difference in the factors or in the singular verdict, which it returns.
func checkAgainstDense(t *testing.T, f *luFactors, b *sparseBasis) (singular bool) {
	t.Helper()
	want, wantErr := luFactorizeDense(b.m, b.rows, b.vals)
	gotErr := f.factorize(b.m, b.rows, b.vals)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("singular verdict differs: reach %v, dense sweep %v", gotErr, wantErr)
	}
	if wantErr != nil {
		return true
	}
	if d := sameFactors(f, want); d != "" {
		t.Fatalf("factors differ from the dense sweep: %s", d)
	}
	return false
}

// TestLUReachMatchesDenseSweep pins that the symbolic-reach factorization
// is bit-identical to the dense sweep on every basis shape, including
// singular verdicts, while one workspace is reused across matrices of
// different sizes (and across failed factorizations).
func TestLUReachMatchesDenseSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := &luFactors{}
	for shape := luShape(0); shape < numLUShapes; shape++ {
		singular := 0
		for trial := 0; trial < 60; trial++ {
			m := 1 + rng.Intn(80)
			if trial%20 == 0 {
				m = 300
			}
			if checkAgainstDense(t, f, randomBasis(shape, m, rng)) {
				singular++
			}
		}
		t.Logf("%v: %d of 60 bases singular", shape, singular)
	}
}

// FuzzLUReachMatchesDenseSweep is the fuzzing form of
// TestLUReachMatchesDenseSweep: the fuzzer picks the shape, size and seed.
func FuzzLUReachMatchesDenseSweep(f *testing.F) {
	for shape := luShape(0); shape < numLUShapes; shape++ {
		for _, m := range []uint16{1, 7, 40, 200} {
			f.Add(uint8(shape), m, int64(m)*31+int64(shape))
		}
	}
	f.Fuzz(func(t *testing.T, shape uint8, m uint16, seed int64) {
		b := randomBasis(luShape(shape)%numLUShapes, 1+int(m)%400, rand.New(rand.NewSource(seed)))
		checkAgainstDense(t, &luFactors{}, b)
	})
}

// dupColumnModel builds max x + y + z/2 over two LE rows in which x and y
// have identical columns, so any basis holding both is singular. Its
// optimum is 2.5.
func dupColumnModel() (*Model, VarID, VarID, VarID) {
	m := NewModel("dup", Maximize)
	x := m.AddVar("x", 0, 4, 1)
	y := m.AddVar("y", 0, 4, 1)
	z := m.AddVar("z", 0, 4, 0.5)
	r0 := m.AddRow("r0", LE, 3)
	r1 := m.AddRow("r1", LE, 5)
	for _, v := range []VarID{x, y} {
		m.AddTerm(r0, v, 1)
		m.AddTerm(r1, v, 2)
	}
	m.AddTerm(r0, z, 1)
	m.AddTerm(r1, z, 1)
	return m, x, y, z
}

// installSingularBasis makes x and y the basic columns of s, with every
// other column nonbasic at its lower bound.
func installSingularBasis(s *simplex, x, y VarID) {
	for j := range s.pos {
		s.pos[j] = -1
		s.state[j] = stAtLower
	}
	for slot, j := range []int{int(x), int(y)} {
		s.basis[slot] = j
		s.pos[j] = slot
		s.state[j] = stBasic
	}
}

// TestSingularRefactorClearsFactors pins the refactorize contract: the LU
// is rebuilt in place, so a singular basis leaves no factors behind to be
// ftran'd or btran'd through by mistake, and the state can be refactorized
// again once the basis is repaired.
func TestSingularRefactorClearsFactors(t *testing.T) {
	model, x, y, _ := dupColumnModel()
	s := model.assemble(Options{})
	if _, sol, err := model.coldSolve(s, s.opt); err != nil || sol.Status != Optimal {
		t.Fatalf("cold solve: %v (%v)", err, sol.Status)
	}
	basis := append([]int(nil), s.basis...)
	state := append([]int8(nil), s.state...)
	xB := append([]float64(nil), s.xB...)

	installSingularBasis(s, x, y)
	if err := s.refactorize(); err != errSingular {
		t.Fatalf("refactorize of a singular basis: err = %v, want errSingular", err)
	}
	if s.factor.lu != nil || len(s.factor.etas) != 0 {
		t.Fatalf("singular refactorize left factors behind: %+v", s.factor)
	}

	copy(s.basis, basis)
	copy(s.state, state)
	for j := range s.pos {
		s.pos[j] = -1
	}
	for slot, j := range s.basis {
		s.pos[j] = slot
	}
	if err := s.refactorize(); err != nil {
		t.Fatalf("refactorize after repair: %v", err)
	}
	for i := range xB {
		if math.Float64bits(s.xB[i]) != math.Float64bits(xB[i]) {
			t.Fatalf("xB after repair = %v, want %v", s.xB, xB)
		}
	}
}

// TestSingularRefactorThenResolve forces a singular refactorization on
// each path that recovers from one, then re-solves: the warm start falls
// back to the cold path, and an Incremental whose cached state lost its
// factors (or hits the singular basis in its own refactorization) solves
// from scratch. Every answer must be the true optimum.
func TestSingularRefactorThenResolve(t *testing.T) {
	const want = 2.5
	check := func(name string, sol *Solution, err error) {
		t.Helper()
		if err != nil || sol.Status != Optimal || math.Abs(sol.Objective-want) > 1e-9 {
			t.Fatalf("%s: err %v status %v objective %v, want optimal %v", name, err, sol.Status, sol.Objective, want)
		}
	}

	t.Run("warm-start", func(t *testing.T) {
		model, x, y, _ := dupColumnModel()
		base, err := model.SolveWith(Options{CaptureBasis: true})
		check("base", base, err)
		bad := *base.Basis
		bad.basis = []int{int(x), int(y)}
		bad.state = make([]int8, len(base.Basis.state))
		bad.state[x], bad.state[y] = stBasic, stBasic
		sol, err := model.SolveWith(Options{WarmStart: &bad})
		check("warm from singular basis", sol, err)
		if sol.Warm != "fallback" {
			t.Fatalf("warm outcome %q, want fallback", sol.Warm)
		}
	})

	t.Run("incremental-cleared-state", func(t *testing.T) {
		model, x, y, _ := dupColumnModel()
		inc := NewIncremental(model, Options{})
		sol, err := inc.Solve()
		check("first solve", sol, err)
		installSingularBasis(inc.s, x, y)
		if err := inc.s.refactorize(); err != errSingular {
			t.Fatalf("refactorize: err = %v, want errSingular", err)
		}
		sol, err = inc.Solve()
		check("re-solve", sol, err)
	})

	t.Run("incremental-refactor", func(t *testing.T) {
		model, x, y, z := dupColumnModel()
		inc := NewIncremental(model, Options{})
		sol, err := inc.Solve()
		check("first solve", sol, err)
		installSingularBasis(inc.s, x, y)
		// Move a nonbasic resting value so the re-solve refactorizes.
		model.SetBounds(z, 0, 3)
		inc.s.state[z] = stAtUpper
		sol, err = inc.Solve()
		check("re-solve", sol, err)
	})
}
