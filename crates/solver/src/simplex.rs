//! Dense two-phase primal simplex.
//!
//! Solves `maximize c^T x` subject to linear constraints and `x >= 0`.
//! Uses Bland's rule to guarantee termination (no cycling) and a standard
//! phase-1 with artificial variables to find an initial basic feasible
//! solution. Intended for the modest problem sizes the analytical model's
//! LP relaxations produce; everything is `Vec<f64>` dense.

use crate::SolverError;

/// Relation of a constraint row to its right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `a . x <= b`
    Le,
    /// `a . x >= b`
    Ge,
    /// `a . x == b`
    Eq,
}

/// One linear constraint `coeffs . x REL rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Coefficients over the structural variables.
    pub coeffs: Vec<f64>,
    /// Relation to the right-hand side.
    pub relation: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program in `maximize` form with non-negative variables.
#[derive(Debug, Clone, Default)]
pub struct LinearProgram {
    /// Objective coefficients (length = number of variables).
    pub objective: Vec<f64>,
    /// Constraint rows.
    pub constraints: Vec<Constraint>,
}

/// An optimal LP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Values of the structural variables.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
    /// Total simplex pivots across phase 1, artificial drive-out and
    /// phase 2. Deterministic under Bland's rule, so suitable for
    /// snapshot-diffed solver-effort metrics.
    pub pivots: u64,
}

const EPS: f64 = 1e-9;
const MAX_ITERS: usize = 200_000;

impl LinearProgram {
    /// Create a program with `nvars` variables and the given objective.
    pub fn maximize(objective: Vec<f64>) -> Self {
        LinearProgram {
            objective,
            constraints: Vec::new(),
        }
    }

    /// Add a constraint; returns `self` for chaining.
    pub fn constrain(mut self, coeffs: Vec<f64>, relation: Relation, rhs: f64) -> Self {
        self.constraints.push(Constraint {
            coeffs,
            relation,
            rhs,
        });
        self
    }

    /// Solve the program.
    ///
    /// # Errors
    ///
    /// [`SolverError::Infeasible`], [`SolverError::Unbounded`],
    /// [`SolverError::LimitExceeded`], or [`SolverError::Malformed`] when
    /// constraint widths disagree with the objective length.
    pub fn solve(&self) -> Result<LpSolution, SolverError> {
        let mut tab = self.build_tableau()?;
        let (n, m) = (tab.n, tab.t.len());

        // Phase 1: minimize sum of artificials == maximize -(sum of artificials).
        let mut pivots = 0u64;
        if !tab.art_cols.is_empty() {
            let mut obj = vec![0.0f64; tab.total];
            for &c in &tab.art_cols {
                obj[c] = -1.0;
            }
            let (val, p1) = run_simplex(&mut tab.t, &mut tab.basis, &obj, tab.total)?;
            pivots += p1;
            if val < -1e-7 {
                return Err(SolverError::Infeasible);
            }
            // Drive remaining artificial variables out of the basis.
            for i in 0..m {
                if tab.basis[i] >= n + tab.n_slack {
                    // Find a non-artificial pivot column in this row.
                    if let Some(j) = (0..n + tab.n_slack).find(|&j| tab.t[i][j].abs() > EPS) {
                        pivot(&mut tab.t, &mut tab.basis, i, j, tab.total);
                        pivots += 1;
                    }
                    // If none exists the row is all-zero (redundant): leave it.
                }
            }
        }
        self.phase2(tab, pivots)
    }

    /// Build the normalized tableau with its initial slack/artificial basis.
    fn build_tableau(&self) -> Result<Tableau, SolverError> {
        let n = self.objective.len();
        if n == 0 {
            return Err(SolverError::Malformed("no variables"));
        }
        for c in &self.constraints {
            if c.coeffs.len() != n {
                return Err(SolverError::Malformed("constraint width mismatch"));
            }
        }
        let m = self.constraints.len();

        // Normalize rows to non-negative rhs.
        let mut rows: Vec<(Vec<f64>, Relation, f64)> = self
            .constraints
            .iter()
            .map(|c| {
                if c.rhs < 0.0 {
                    let flipped = match c.relation {
                        Relation::Le => Relation::Ge,
                        Relation::Ge => Relation::Le,
                        Relation::Eq => Relation::Eq,
                    };
                    (c.coeffs.iter().map(|v| -v).collect(), flipped, -c.rhs)
                } else {
                    (c.coeffs.clone(), c.relation, c.rhs)
                }
            })
            .collect();

        // Column layout: [structural n][slack/surplus s][artificial a].
        let mut n_slack = 0usize;
        let mut n_art = 0usize;
        for (_, rel, _) in &rows {
            match rel {
                Relation::Le => n_slack += 1,
                Relation::Ge => {
                    n_slack += 1;
                    n_art += 1;
                }
                Relation::Eq => n_art += 1,
            }
        }
        let total = n + n_slack + n_art;
        // Tableau: m rows x (total + 1) columns (last = rhs).
        let mut t = vec![vec![0.0f64; total + 1]; m];
        let mut basis = vec![0usize; m];
        let mut slack_idx = n;
        let mut art_idx = n + n_slack;
        let mut art_cols = Vec::new();
        for (i, (coeffs, rel, rhs)) in rows.drain(..).enumerate() {
            t[i][..n].copy_from_slice(&coeffs);
            t[i][total] = rhs;
            match rel {
                Relation::Le => {
                    t[i][slack_idx] = 1.0;
                    basis[i] = slack_idx;
                    slack_idx += 1;
                }
                Relation::Ge => {
                    t[i][slack_idx] = -1.0;
                    slack_idx += 1;
                    t[i][art_idx] = 1.0;
                    basis[i] = art_idx;
                    art_cols.push(art_idx);
                    art_idx += 1;
                }
                Relation::Eq => {
                    t[i][art_idx] = 1.0;
                    basis[i] = art_idx;
                    art_cols.push(art_idx);
                    art_idx += 1;
                }
            }
        }
        Ok(Tableau {
            t,
            basis,
            n,
            n_slack,
            art_cols,
            total,
        })
    }

    /// Run phase 2 on a feasible tableau and extract the solution.
    fn phase2(&self, mut tab: Tableau, setup_pivots: u64) -> Result<LpSolution, SolverError> {
        // Original objective (zero on slack and artificial columns;
        // artificial columns are additionally forbidden from entering).
        let mut obj = vec![0.0f64; tab.total];
        obj[..tab.n].copy_from_slice(&self.objective);
        let forbidden_from = tab.n + tab.n_slack;
        let (objective, p2) =
            run_simplex_bounded(&mut tab.t, &mut tab.basis, &obj, tab.total, forbidden_from)?;

        let mut x = vec![0.0f64; tab.n];
        for (i, &b) in tab.basis.iter().enumerate() {
            if b < tab.n {
                x[b] = tab.t[i][tab.total];
            }
        }
        Ok(LpSolution {
            x,
            objective,
            pivots: setup_pivots + p2,
        })
    }
}

/// A simplex tableau with its current basis and column layout.
struct Tableau {
    /// `m` rows x `(total + 1)` columns (last = rhs).
    t: Vec<Vec<f64>>,
    /// Basic column per row.
    basis: Vec<usize>,
    /// Structural variable count.
    n: usize,
    /// Slack/surplus column count.
    n_slack: usize,
    /// Artificial column indices.
    art_cols: Vec<usize>,
    /// Total column count (excluding rhs).
    total: usize,
}

fn pivot(t: &mut [Vec<f64>], basis: &mut [usize], row: usize, col: usize, total: usize) {
    let p = t[row][col];
    debug_assert!(p.abs() > EPS);
    for v in t[row].iter_mut() {
        *v /= p;
    }
    let pivot_row = t[row].clone();
    for (i, r) in t.iter_mut().enumerate() {
        if i == row {
            continue;
        }
        let factor = r[col];
        if factor.abs() > EPS {
            for j in 0..=total {
                r[j] -= factor * pivot_row[j];
            }
        }
    }
    basis[row] = col;
}

fn run_simplex(
    t: &mut [Vec<f64>],
    basis: &mut [usize],
    obj: &[f64],
    total: usize,
) -> Result<(f64, u64), SolverError> {
    run_simplex_bounded(t, basis, obj, total, total)
}

/// Core simplex loop. Columns `>= forbidden_from` may never enter the basis
/// (used to keep artificial variables out in phase 2). Returns the objective
/// value and the number of pivots performed.
fn run_simplex_bounded(
    t: &mut [Vec<f64>],
    basis: &mut [usize],
    obj: &[f64],
    total: usize,
    forbidden_from: usize,
) -> Result<(f64, u64), SolverError> {
    let m = t.len();
    // Reduced-cost row z_j - c_j maintained implicitly: recompute each
    // iteration (dense, simple; fine at our sizes). Exactly one pivot
    // happens per loop iteration, so `it` doubles as the pivot count.
    for it in 0..MAX_ITERS {
        // cb = objective coefficients of basic variables.
        // reduced[j] = obj[j] - cb . column_j
        let mut entering = None;
        for j in 0..forbidden_from {
            let mut cbj = 0.0;
            for i in 0..m {
                let cb = obj[basis[i]];
                // ts-lint: allow(float-ordering) -- exact-zero skip of structurally zero coefficients; any nonzero (even subnormal) must take the multiply path
                if cb != 0.0 {
                    cbj += cb * t[i][j];
                }
            }
            let reduced = obj[j] - cbj;
            if reduced > EPS {
                // Bland: first improving column.
                entering = Some(j);
                break;
            }
        }
        let Some(col) = entering else {
            // Optimal.
            let mut val = 0.0;
            for i in 0..m {
                val += obj[basis[i]] * t[i][total];
            }
            return Ok((val, it as u64));
        };
        // Ratio test (Bland: smallest basis index on ties).
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            if t[i][col] > EPS {
                let ratio = t[i][total] / t[i][col];
                if ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS
                        && leave.map(|l| basis[i] < basis[l]).unwrap_or(true))
                {
                    best_ratio = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(row) = leave else {
            return Err(SolverError::Unbounded);
        };
        pivot(t, basis, row, col, total);
    }
    Err(SolverError::LimitExceeded)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  ->  36 at (2, 6).
        let lp = LinearProgram::maximize(vec![3.0, 5.0])
            .constrain(vec![1.0, 0.0], Relation::Le, 4.0)
            .constrain(vec![0.0, 2.0], Relation::Le, 12.0)
            .constrain(vec![3.0, 2.0], Relation::Le, 18.0);
        let sol = lp
            .solve()
            .expect("textbook max 3x+5y over three Le constraints is feasible and bounded");
        assert_close(sol.objective, 36.0);
        assert_close(sol.x[0], 2.0);
        assert_close(sol.x[1], 6.0);
    }

    #[test]
    fn ge_and_eq_constraints() {
        // max x + y s.t. x + y <= 10, x >= 2, y == 3 -> x=7, y=3.
        let lp = LinearProgram::maximize(vec![1.0, 1.0])
            .constrain(vec![1.0, 1.0], Relation::Le, 10.0)
            .constrain(vec![1.0, 0.0], Relation::Ge, 2.0)
            .constrain(vec![0.0, 1.0], Relation::Eq, 3.0);
        let sol = lp
            .solve()
            .expect("LP with x+y<=10, x>=2, y==3 is feasible (x=7, y=3)");
        assert_close(sol.objective, 10.0);
        assert_close(sol.x[1], 3.0);
    }

    #[test]
    fn infeasible_detected() {
        let lp = LinearProgram::maximize(vec![1.0])
            .constrain(vec![1.0], Relation::Le, 1.0)
            .constrain(vec![1.0], Relation::Ge, 2.0);
        assert_eq!(lp.solve().unwrap_err(), SolverError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let lp =
            LinearProgram::maximize(vec![1.0, 0.0]).constrain(vec![0.0, 1.0], Relation::Le, 5.0);
        assert_eq!(lp.solve().unwrap_err(), SolverError::Unbounded);
    }

    #[test]
    fn negative_rhs_normalized() {
        // x - y <= -1 with x,y >= 0 means y >= x + 1.
        // max x + y s.t. x - y <= -1, x + y <= 9 -> best 9 (e.g. x=4,y=5).
        let lp = LinearProgram::maximize(vec![1.0, 1.0])
            .constrain(vec![1.0, -1.0], Relation::Le, -1.0)
            .constrain(vec![1.0, 1.0], Relation::Le, 9.0);
        let sol = lp
            .solve()
            .expect("negative-rhs LP (x-y<=-1, x+y<=9) is feasible after normalization");
        assert_close(sol.objective, 9.0);
        assert!(sol.x[1] >= sol.x[0] + 1.0 - 1e-6);
    }

    #[test]
    fn minimization_via_negated_objective() {
        // min 2x + 3y s.t. x + y >= 4, x <= 3 -> x=3, y=1, value 9.
        let lp = LinearProgram::maximize(vec![-2.0, -3.0])
            .constrain(vec![1.0, 1.0], Relation::Ge, 4.0)
            .constrain(vec![1.0, 0.0], Relation::Le, 3.0);
        let sol = lp
            .solve()
            .expect("min 2x+3y with x+y>=4, x<=3 is feasible (x=3, y=1)");
        assert_close(-sol.objective, 9.0);
    }

    #[test]
    fn degenerate_does_not_cycle() {
        // Classic degenerate instance; Bland's rule must terminate.
        let lp = LinearProgram::maximize(vec![0.75, -150.0, 0.02, -6.0])
            .constrain(vec![0.25, -60.0, -0.04, 9.0], Relation::Le, 0.0)
            .constrain(vec![0.5, -90.0, -0.02, 3.0], Relation::Le, 0.0)
            .constrain(vec![0.0, 0.0, 1.0, 0.0], Relation::Le, 1.0);
        let sol = lp
            .solve()
            .expect("Beale's degenerate cycling LP is feasible; Bland's rule must terminate");
        assert_close(sol.objective, 0.05);
    }

    #[test]
    fn malformed_rejected() {
        let lp = LinearProgram::maximize(vec![1.0, 2.0]).constrain(vec![1.0], Relation::Le, 1.0);
        assert_eq!(
            lp.solve().unwrap_err(),
            SolverError::Malformed("constraint width mismatch")
        );
        assert!(LinearProgram::maximize(vec![]).solve().is_err());
    }

    #[test]
    fn larger_random_feasible_lp() {
        // Random-ish LP with known-feasible box; checks stability.
        let n = 12;
        let mut obj = Vec::new();
        let mut x = 7u64;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((x >> 33) % 1000) as f64 / 100.0
        };
        for _ in 0..n {
            obj.push(next());
        }
        let mut lp = LinearProgram::maximize(obj.clone());
        for i in 0..n {
            let mut row = vec![0.0; n];
            row[i] = 1.0;
            lp = lp.constrain(row, Relation::Le, 1.0);
        }
        // One coupling constraint.
        lp = lp.constrain(vec![1.0; n], Relation::Le, n as f64 / 2.0);
        let sol = lp
            .solve()
            .expect("12-var box LP with one coupling Le constraint is feasible and bounded");
        assert!(sol.x.iter().all(|&v| (-1e-9..=1.0 + 1e-9).contains(&v)));
        assert!(sol.x.iter().sum::<f64>() <= n as f64 / 2.0 + 1e-6);
    }
}
