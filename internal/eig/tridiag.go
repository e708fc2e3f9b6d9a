package eig

import (
	"errors"
	"math"
)

// ErrNoConverge is returned when an eigenvalue iteration stalls.
var ErrNoConverge = errors.New("eig: eigenvalue iteration did not converge")

// TQL2 computes all eigenvalues (and, if z != nil, accumulates the
// corresponding transformations into z's columns) of a symmetric
// tridiagonal matrix with diagonal d and subdiagonal e (e[0] unused is NOT
// the convention here: e[i] couples d[i] and d[i+1], so len(e) == len(d)-1).
// It is the classic implicit-QL algorithm with Wilkinson shifts (EISPACK
// tql2 lineage). On return d holds the eigenvalues in ascending order.
//
// z, when non-nil, must be an n×n matrix (rows) initialized to the basis in
// which the tridiagonal is expressed (identity for raw tridiagonals, the
// Lanczos basis for Ritz vectors); its columns are rotated in place.
func TQL2(d, e []float64, z [][]float64) error {
	n := len(d)
	if n == 0 {
		return nil
	}
	if len(e) != n-1 {
		return errors.New("eig: TQL2 needs len(e) == len(d)-1")
	}
	// Work on a padded copy of e.
	ee := make([]float64, n)
	copy(ee, e)

	for l := 0; l < n; l++ {
		iter := 0
		for {
			// Find a small subdiagonal element.
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(ee[m]) <= 1e-300+2.3e-16*dd {
					break
				}
			}
			if m == l {
				break
			}
			iter++
			if iter > 50 {
				return ErrNoConverge
			}
			// Wilkinson shift.
			g := (d[l+1] - d[l]) / (2 * ee[l])
			r := math.Hypot(g, 1)
			sg := r
			if g < 0 {
				sg = -r
			}
			g = d[m] - d[l] + ee[l]/(g+sg)
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * ee[i]
				b := c * ee[i]
				r = math.Hypot(f, g)
				ee[i+1] = r
				if r == 0 {
					d[i+1] -= p
					ee[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				if z != nil {
					for k := 0; k < len(z); k++ {
						f := z[k][i+1]
						z[k][i+1] = s*z[k][i] + c*f
						z[k][i] = c*z[k][i] - s*f
					}
				}
			}
			if r == 0 && m-1 >= l {
				continue
			}
			d[l] -= p
			ee[l] = g
			ee[m] = 0
		}
	}
	// Sort ascending (insertion sort, rotating z columns).
	for i := 1; i < n; i++ {
		dv := d[i]
		var col []float64
		if z != nil {
			col = make([]float64, len(z))
			for k := range z {
				col[k] = z[k][i]
			}
		}
		j := i - 1
		for j >= 0 && d[j] > dv {
			d[j+1] = d[j]
			if z != nil {
				for k := range z {
					z[k][j+1] = z[k][j]
				}
			}
			j--
		}
		d[j+1] = dv
		if z != nil {
			for k := range z {
				z[k][j+1] = col[k]
			}
		}
	}
	return nil
}
