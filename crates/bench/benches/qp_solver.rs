//! QP substrate benchmarks: the dual active-set solver that replaces
//! MATLAB `lsqlin`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use eucon_math::{Matrix, Vector};
use eucon_qp::{LsqSolution, PreparedLsq};
use eucon_tasks::workloads::RandomWorkload;

/// `min ‖C·x − d‖²` s.t. `G·x ≤ h`, solved from scratch.
struct Instance {
    c: Matrix,
    g: Matrix,
    h: Vector,
    d: Vector,
}

impl Instance {
    /// Prepares and solves once: the factor-plus-solve cost of a problem
    /// nobody solves twice.
    fn solve_once(&self) -> LsqSolution {
        PreparedLsq::new(self.c.clone(), self.g.clone(), 0.0)
            .and_then(|p| p.solve_with(&self.d, &self.h, &[]))
            .expect("solve")
    }
}

/// A box-constrained least-squares instance of dimension `n` whose
/// unconstrained optimum violates about half the bounds, forcing real
/// active-set work.  The box `−1 ≤ x ≤ 1` is `2n` rows of `G`: `x ≤ 1`,
/// then `−x ≤ 1`.
fn instance(n: usize) -> Instance {
    let c = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            2.0
        } else if i.abs_diff(j) == 1 {
            0.5
        } else {
            0.0
        }
    });
    let d = Vector::from_iter((0..n).map(|i| if i % 2 == 0 { 3.0 } else { -3.0 }));
    let g = Matrix::from_fn(2 * n, n, |i, j| match i {
        _ if i == j => 1.0,
        _ if i == n + j => -1.0,
        _ => 0.0,
    });
    Instance {
        c,
        g,
        h: Vector::filled(2 * n, 1.0),
        d,
    }
}

fn bench_box_lsq(c: &mut Criterion) {
    let mut group = c.benchmark_group("lsqlin_box");
    for n in [4usize, 8, 16, 32] {
        let problem = instance(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &problem, |b, p| {
            b.iter(|| black_box(p.solve_once()))
        });
    }
    group.finish();
}

fn bench_constraint_count(c: &mut Criterion) {
    // Fixed 8 variables, growing numbers of general inequality rows
    // after the box.
    let mut group = c.benchmark_group("lsqlin_constraints");
    let n = 8;
    for rows in [8usize, 32, 128] {
        let mut problem = instance(n);
        let g = Matrix::from_fn(rows, n, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        problem.g = problem.g.vstack(&g);
        problem.h = problem.h.concat(&Vector::filled(rows, 4.0));
        group.bench_with_input(BenchmarkId::from_parameter(rows), &problem, |b, p| {
            b.iter(|| black_box(p.solve_once()))
        });
    }
    group.finish();
}

/// The per-period problem of one centralized MPC over 20 processors and
/// 60 tasks with `P = 4`, `M = 2` — 120 variables, 320 constraint rows
/// (240 rate-bound rows with one or two nonzeros, 80 utilization rows
/// carrying the allocation matrix), 200 objective rows — laid out like
/// `eucon-control` builds it, except that the controller keeps only the
/// utilization rows of steps 1..=M (280 rows), the later steps repeating
/// step M under hold-rate.  A few percent of `G` and `C` is nonzero.
fn central20() -> (PreparedLsq, Vector) {
    const P: usize = 4;
    const M: usize = 2;
    let f = RandomWorkload::new(20, 60)
        .seed(7)
        .generate()
        .allocation_matrix();
    let (n, m) = (f.rows(), f.cols());
    // Row `(step, r)` of the prediction: every move made before `step`
    // shifts processor `r` by its allocation row.
    let predicted = |step: usize, r: usize, col: usize| -> f64 {
        if col / m < step {
            f[(r, col % m)]
        } else {
            0.0
        }
    };
    let c = Matrix::from_fn(n * P + m * M, m * M, |row, col| {
        if row < n * P {
            predicted(row / n + 1, row % n, col)
        } else {
            // Move penalty: Δr(j) − Δr(j − 1), lightly weighted.
            let (j, t) = ((row - n * P) / m, (row - n * P) % m);
            match (col % m == t, col / m) {
                (true, cj) if cj == j => 0.1,
                (true, cj) if cj + 1 == j => -0.1,
                _ => 0.0,
            }
        }
    });
    let g = Matrix::from_fn(2 * m * M + n * P, m * M, |row, col| {
        if row < 2 * m * M {
            // Rate box on the cumulative move, upper then lower, per step.
            let (i, k) = (row / (2 * m), row % (2 * m));
            let sign = if k < m { 1.0 } else { -1.0 };
            if col % m == k % m && col / m <= i {
                sign
            } else {
                0.0
            }
        } else {
            let row = row - 2 * m * M;
            predicted(row / n + 1, row % n, col)
        }
    });
    let h = Vector::from_iter((0..g.rows()).map(|row| if row < 2 * m * M { 0.004 } else { 0.05 }));
    (PreparedLsq::new(c, g, 1e-9).expect("strictly convex"), h)
}

fn bench_central20(c: &mut Criterion) {
    // Two tracking targets (overload, underload) alternate, each solve
    // warm-started from the other's active set: the set churns every
    // call, as it does under execution-time noise.
    let (problem, h) = central20();
    let rows = 20 * 4 + 60 * 2;
    let targets = [-0.3, 0.2].map(|e| {
        Vector::from_iter((0..rows).map(|row| {
            if row < 80 {
                e * (1.0 + 0.1 * (row % 7) as f64)
            } else {
                0.0
            }
        }))
    });
    let mut sol = LsqSolution::default();
    let mut warm: Vec<usize> = Vec::new();
    let mut flip = 0;
    let mut group = c.benchmark_group("lsqlin_mpc_central20");
    group.bench_function("120x320_churning_warm", |b| {
        b.iter(|| {
            flip ^= 1;
            problem
                .solve_into(&targets[flip], &h, &warm, &mut sol)
                .expect("solve");
            warm.clone_from(&sol.active);
            black_box(sol.iterations)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_box_lsq,
    bench_constraint_count,
    bench_central20
);
criterion_main!(benches);
