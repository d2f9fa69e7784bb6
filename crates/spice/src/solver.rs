/// Solves the dense linear system `A x = b` in place via LU decomposition
/// with partial pivoting, returning `x`.
///
/// `a` is row-major `n x n`. Returns `None` when the matrix is numerically
/// singular (pivot below 1e-300).
///
/// The MNA matrices produced by cell-characterization circuits are tiny
/// (tens of unknowns), so a dense solver is both the simplest and the
/// fastest choice here.
///
/// # Example
///
/// ```
/// let a = vec![2.0, 1.0, 1.0, 3.0];
/// let b = vec![3.0, 5.0];
/// let x = m3d_spice::solve_dense(a, b).expect("non-singular");
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// ```
pub fn solve_dense(mut a: Vec<f64>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    solve_in_place(&mut a, &mut b).then_some(b)
}

/// The elimination behind [`solve_dense`], over caller-owned buffers:
/// on success `b` holds `x` and `a` its upper-triangular factor; returns
/// `false` when the matrix is numerically singular (both buffers are
/// then partially eliminated). Works on whole row slices, so the Newton
/// loop can reuse one matrix and one right-hand side per operating
/// point instead of allocating them per iteration.
pub(crate) fn solve_in_place(a: &mut [f64], b: &mut [f64]) -> bool {
    let n = b.len();
    debug_assert_eq!(a.len(), n * n, "matrix shape mismatch");
    if n == 0 {
        return true;
    }
    for col in 0..n {
        // Partial pivot.
        let mut pivot_row = col;
        let mut pivot_val = a[col * n + col].abs();
        for row in (col + 1)..n {
            let v = a[row * n + col].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = row;
            }
        }
        if pivot_val < 1e-300 {
            return false;
        }
        let (upper, lower) = a.split_at_mut((col + 1) * n);
        let pivot = &mut upper[col * n..];
        if pivot_row != col {
            let start = (pivot_row - col - 1) * n;
            pivot.swap_with_slice(&mut lower[start..start + n]);
            b.swap(col, pivot_row);
        }
        let (b_upper, b_lower) = b.split_at_mut(col + 1);
        let b_pivot = b_upper[col];
        let inv_pivot = 1.0 / pivot[col];
        let pivot_tail = &pivot[col + 1..];
        for (row, b_row) in lower.chunks_exact_mut(n).zip(b_lower) {
            let factor = row[col] * inv_pivot;
            if factor == 0.0 {
                continue;
            }
            row[col] = 0.0;
            for (x, &p) in row[col + 1..].iter_mut().zip(pivot_tail) {
                *x -= factor * p;
            }
            *b_row -= factor * b_pivot;
        }
    }
    // Back substitution.
    for (col, row) in a.chunks_exact(n).enumerate().rev() {
        let (b_head, b_tail) = b.split_at_mut(col + 1);
        let mut sum = b_head[col];
        for (&ak, &xk) in row[col + 1..].iter().zip(b_tail.iter()) {
            sum -= ak * xk;
        }
        b_head[col] = sum / row[col];
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The index-loop solver the slice-based elimination replaced, kept
    /// verbatim as the bit-exact reference.
    fn reference_solve(mut a: Vec<f64>, mut b: Vec<f64>) -> Option<Vec<f64>> {
        let n = b.len();
        debug_assert_eq!(a.len(), n * n, "matrix shape mismatch");
        for col in 0..n {
            // Partial pivot.
            let mut pivot_row = col;
            let mut pivot_val = a[col * n + col].abs();
            for row in (col + 1)..n {
                let v = a[row * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = row;
                }
            }
            if pivot_val < 1e-300 {
                return None;
            }
            if pivot_row != col {
                for k in 0..n {
                    a.swap(col * n + k, pivot_row * n + k);
                }
                b.swap(col, pivot_row);
            }
            let inv_pivot = 1.0 / a[col * n + col];
            for row in (col + 1)..n {
                let factor = a[row * n + col] * inv_pivot;
                if factor == 0.0 {
                    continue;
                }
                a[row * n + col] = 0.0;
                for k in (col + 1)..n {
                    a[row * n + k] -= factor * a[col * n + k];
                }
                b[row] -= factor * b[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut sum = b[col];
            for k in (col + 1)..n {
                sum -= a[col * n + k] * b[k];
            }
            b[col] = sum / a[col * n + col];
        }
        Some(b)
    }

    /// A deterministic xorshift stream of values in [-1, 1).
    fn xorshift(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2000) as f64 / 1000.0 - 1.0
        }
    }

    #[test]
    fn empty_system_solves_to_empty() {
        assert_eq!(solve_dense(Vec::new(), Vec::new()), Some(Vec::new()));
    }

    #[test]
    fn identity_returns_rhs() {
        let a = vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        let b = vec![4.0, -2.0, 7.5];
        assert_eq!(solve_dense(a, b.clone()).expect("identity"), b);
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a = vec![1.0, 2.0, 2.0, 4.0];
        assert!(solve_dense(a, vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [[0, 1], [1, 0]] x = [2, 3] -> x = [3, 2].
        let a = vec![0.0, 1.0, 1.0, 0.0];
        let x = solve_dense(a, vec![2.0, 3.0]).expect("permutation matrix");
        assert_eq!(x, vec![3.0, 2.0]);
    }

    proptest! {
        #[test]
        fn residual_is_small_for_random_systems(seed in 0u64..200) {
            // Deterministic pseudo-random diagonally-dominated systems.
            let n = 1 + (seed as usize % 8);
            let mut rnd = xorshift(seed);
            let mut a = vec![0.0; n * n];
            for (i, v) in a.iter_mut().enumerate() {
                *v = rnd();
            // Diagonal dominance guarantees solvability.
                if i % (n + 1) == 0 {
                    *v += n as f64 + 1.0;
                }
            }
            let b: Vec<f64> = (0..n).map(|_| rnd()).collect();
            let x = solve_dense(a.clone(), b.clone()).expect("diag dominant");
            for i in 0..n {
                let mut r = -b[i];
                for j in 0..n {
                    r += a[i * n + j] * x[j];
                }
                prop_assert!(r.abs() < 1e-9, "residual {} at row {}", r, i);
            }
        }

        /// The slice-based elimination is bit-identical to the index-loop
        /// reference, on dense, zero-heavy, pivot-forcing and singular
        /// systems alike: same solution bits, or `None` on both sides.
        #[test]
        fn in_place_lu_matches_the_reference_bit_for_bit(seed in 0u64..2000) {
            let n = 1 + (seed as usize % 13);
            let mut rnd = xorshift(seed);
            let mut a: Vec<f64> = (0..n * n).map(|_| rnd()).collect();
            match seed % 4 {
                // Zero-heavy: about two entries in three vanish, like an
                // MNA stamp, and some rows eliminate nothing.
                1 => a.iter_mut().filter(|_| rnd() < 0.35).for_each(|v| *v = 0.0),
                // Forced pivots: a zero diagonal and a dominant
                // sub-diagonal make every column swap rows.
                2 => {
                    for i in 0..n {
                        a[i * n + i] = 0.0;
                        if i + 1 < n {
                            a[(i + 1) * n + i] = 4.0 + rnd();
                        }
                    }
                }
                // Singular: one row duplicates another (or is all zero).
                3 => {
                    let (src, dst) = (seed as usize % n, (seed as usize / 7) % n);
                    for k in 0..n {
                        a[dst * n + k] = if src == dst { 0.0 } else { a[src * n + k] };
                    }
                }
                _ => {}
            }
            let b: Vec<f64> = (0..n).map(|_| rnd()).collect();
            let bits = |x: Option<Vec<f64>>| x.map(|v| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>());
            let want = bits(reference_solve(a.clone(), b.clone()));
            prop_assert_eq!(bits(solve_dense(a, b)), want);
        }
    }
}
