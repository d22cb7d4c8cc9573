package fec

import "fmt"

// newCode builds the coding core for a validated spec. Every spec is one
// Reed-Solomon code: xor-k is RS(k,1), whose all-ones parity row makes it
// bit-identical to XOR parity on the wire (see newRSCode).
func newCode(spec Spec) (*rsCode, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return newRSCode(spec.K, spec.R), nil
}

// rsCode is the erasure-coding core shared by encode and decode: given k
// equal-length source symbols, produce r repair symbols; given any k of the
// k+r symbols, reproduce the missing sources. Symbols are the length-framed,
// zero-padded datagram images described in fec.go — the code layer never
// sees datagram boundaries, only byte rows.
//
// It is a systematic Reed-Solomon code over GF(2^8). Repair row j is
//
//	repair[j] = Σ_i coeff[j][i] · source[i]
//
// with a Cauchy coefficient matrix coeff[j][i] = 1/(x_j ⊕ y_i), x_j = j,
// y_i = r+i. The x and y sets are disjoint for k+r ≤ 256, and every square
// submatrix of a Cauchy matrix is invertible, so the stacked generator
// [I; C] has the MDS property: any k of the k+r symbols reconstruct the
// block. (A bare Vandermonde block under an identity does not guarantee
// this — the Cauchy form is what makes decoding unconditionally solvable.)
type rsCode struct {
	k, r  int
	coeff [][]byte // r × k parity rows
}

func newRSCode(k, r int) *rsCode {
	c := &rsCode{k: k, r: r, coeff: make([][]byte, r)}
	if r == 1 {
		// A single parity row only needs non-zero coefficients to be MDS;
		// all-ones makes RS(k,1) bit-identical to XOR parity on the wire,
		// so the r in the header fully determines how to decode and the
		// format needs no scheme byte.
		row := make([]byte, k)
		for i := range row {
			row[i] = 1
		}
		c.coeff[0] = row
		return c
	}
	for j := 0; j < r; j++ {
		row := make([]byte, k)
		for i := 0; i < k; i++ {
			row[i] = gfInv(byte(j) ^ byte(r+i))
		}
		c.coeff[j] = row
	}
	return c
}

// encode fills each repairs[j] (len symLen, zeroed by the caller) from the
// k sources (each len symLen).
func (c *rsCode) encode(sources, repairs [][]byte) {
	for j, rep := range repairs {
		row := c.coeff[j]
		for i, src := range sources {
			gfMulAddRow(rep, src, row[i])
		}
	}
}

// reconstruct fills in the nil rows of sources using the non-nil rows plus
// the non-nil repairs. Present rows are left untouched. Fails only if fewer
// than k total symbols are present.
func (c *rsCode) reconstruct(sources, repairs [][]byte) error {
	var missing []int
	for i, src := range sources {
		if src == nil {
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	var avail []int // repair rows on hand
	for j := 0; j < c.r && j < len(repairs); j++ {
		if repairs[j] != nil {
			avail = append(avail, j)
		}
	}
	m := len(missing)
	if len(avail) < m {
		return fmt.Errorf("fec: %d erasures but only %d repair symbols", m, len(avail))
	}
	avail = avail[:m]

	// Each available repair row gives one equation. Move the known sources
	// to the right-hand side, leaving an m×m system in the missing ones:
	//
	//	Σ_{i missing} coeff[j][i]·source[i] = repair[j] ⊕ Σ_{i present} coeff[j][i]·source[i]
	symLen := 0
	for _, j := range avail {
		if l := len(repairs[j]); l > symLen {
			symLen = l
		}
	}
	mat := make([][]byte, m) // m×m in the missing unknowns
	rhs := make([][]byte, m) // reduced right-hand sides
	for e, j := range avail {
		row := make([]byte, m)
		for col, i := range missing {
			row[col] = c.coeff[j][i]
		}
		mat[e] = row
		b := make([]byte, symLen)
		copy(b, repairs[j])
		for i, src := range sources {
			if src != nil {
				gfMulAddRow(b, src, c.coeff[j][i])
			}
		}
		rhs[e] = b
	}

	// Gauss-Jordan over GF(2^8). The Cauchy structure guarantees a non-zero
	// pivot exists in every column; the swap search is belt and braces.
	for col := 0; col < m; col++ {
		piv := -1
		for rIdx := col; rIdx < m; rIdx++ {
			if mat[rIdx][col] != 0 {
				piv = rIdx
				break
			}
		}
		if piv < 0 {
			return fmt.Errorf("fec: singular decode matrix (column %d)", col)
		}
		mat[col], mat[piv] = mat[piv], mat[col]
		rhs[col], rhs[piv] = rhs[piv], rhs[col]
		if inv := gfInv(mat[col][col]); inv != 1 {
			for i := range mat[col] {
				mat[col][i] = gfMul(mat[col][i], inv)
			}
			for i, v := range rhs[col] {
				if v != 0 {
					rhs[col][i] = gfMul(v, inv)
				}
			}
		}
		for rIdx := 0; rIdx < m; rIdx++ {
			if rIdx == col || mat[rIdx][col] == 0 {
				continue
			}
			f := mat[rIdx][col]
			for i := range mat[rIdx] {
				mat[rIdx][i] ^= gfMul(f, mat[col][i])
			}
			gfMulAddRow(rhs[rIdx], rhs[col], f)
		}
	}
	for e, i := range missing {
		sources[i] = rhs[e]
	}
	return nil
}
