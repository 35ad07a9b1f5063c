//! Every exit of the one GMRES driver through its sequential entries, pinned
//! bit for bit.
//!
//! One case per way `Gmres::solve`, `FGmres::solve` and
//! `Gmres::fixed_effort` can stop: target met inside a cycle, on a cycle's
//! last column, in a later cycle and at a restart boundary; happy and serious
//! breakdown; a non-finite column and a non-finite right-hand side; the
//! divergence guard; the stagnation window; a spent budget (mid-cycle, at a
//! boundary, in a second cycle); and an estimate the true residual disagrees
//! with. Each case prints one line — iterations, converged, breakdown (kind,
//! iteration, relres bits), final relres bits, residual-history length and
//! hash, an FNV-1a hash of `x`, and the operator and preconditioner
//! applications — and the lines must equal [`EXPECTED`], which was captured
//! from the sequential loop as it stood before the Givens recurrence moved
//! into `krylov::lsq`. The rows whose exit was a policy of that loop alone —
//! the stagnation window and divergence guard on the estimate, and 1 % of
//! slack for a cycle stopped on its estimate — were re-captured when the loop
//! was deleted for the distributed driver's, which judges both on the true
//! residual at a cycle boundary and converges only at `β ≤ target`. The
//! serious-breakdown rows (`zero_norm`, `fx_zero_norm`) were re-captured when
//! the update stopped back-substituting through the zero the collapse leaves
//! on the diagonal of `R`: their `x` was NaN, and on every such row it must
//! now be finite and no worse than the guess. A difference prints the whole
//! actual table. The last test takes the serious breakdown across two ranks.
//!
//! Exits a healthy operator cannot reach are forced by [`Tamper`]: the
//! wrapped operator returns NaN, or a scaled product, on one chosen call.

use parapre::dist::{gather_vector, scatter_vector, DistGmres, DistMatrix, IdentityDistPrecond};
use parapre::krylov::{
    BreakdownKind, FGmres, Gmres, GmresConfig, IdentityPrecond, Ilu0, LinOp, Preconditioner,
    SolveReport,
};
use parapre::mpisim::Universe;
use parapre::sparse::{Coo, Csr};
use std::cell::Cell;
use std::fmt::Write;

/// What the wrapped operator does on its `n`-th application (1-based).
#[derive(Clone, Copy)]
enum Tamper {
    Never,
    Nan(usize),
    Scale(usize, f64),
}

struct Op<'a> {
    a: &'a Csr,
    calls: Cell<usize>,
    tamper: Tamper,
}

impl LinOp for Op<'_> {
    fn dim(&self) -> usize {
        self.a.n_rows()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.calls.set(self.calls.get() + 1);
        self.a.spmv(x, y);
        match self.tamper {
            Tamper::Nan(at) if at == self.calls.get() => y[0] = f64::NAN,
            Tamper::Scale(at, s) if at == self.calls.get() => y.iter_mut().for_each(|v| *v *= s),
            _ => {}
        }
    }
}

struct Pre<'a> {
    m: &'a dyn Preconditioner,
    calls: Cell<usize>,
}

impl Preconditioner for Pre<'_> {
    fn dim(&self) -> usize {
        self.m.dim()
    }
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.calls.set(self.calls.get() + 1);
        self.m.apply(r, z);
    }
}

#[derive(Clone, Copy, Debug)]
enum Entry {
    Gmres,
    FGmres,
    /// `Gmres::fixed_effort` with this `k`; the case's config is not read.
    Fixed(usize),
}

/// NaN has many bit patterns and the sign of a computed one is not ours to
/// pin; every other value is pinned exactly.
fn bits(v: f64) -> u64 {
    if v.is_nan() {
        0x7ff8_0000_0000_0000
    } else {
        v.to_bits()
    }
}

fn fnv(xs: &[f64]) -> u64 {
    xs.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &v| {
        bits(v)
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

struct Case<'a> {
    name: &'a str,
    a: &'a Csr,
    ilu0: bool,
    b: Vec<f64>,
    x0: Vec<f64>,
    cfg: GmresConfig,
    tamper: Tamper,
}

impl<'a> Case<'a> {
    /// Unpreconditioned, zero guess, default configuration, honest operator.
    fn new(name: &'a str, a: &'a Csr) -> Self {
        Case {
            name,
            a,
            ilu0: false,
            b: wavy(a.n_rows()),
            x0: vec![0.0; a.n_rows()],
            cfg: GmresConfig::default(),
            tamper: Tamper::Never,
        }
    }
}

/// Runs one case through one entry, appends its line to `out`, and returns
/// the report (`None` for the unreported fixed-effort entry) and `x`.
fn run(out: &mut String, case: &Case<'_>, entry: Entry) -> (Option<SolveReport>, Vec<f64>) {
    let n = case.a.n_rows();
    let op = Op {
        a: case.a,
        calls: Cell::new(0),
        tamper: case.tamper,
    };
    let ilu = case.ilu0.then(|| Ilu0::factor(case.a).unwrap());
    let ident = IdentityPrecond::new(n);
    let pre = Pre {
        m: ilu.as_ref().map_or(&ident as &dyn Preconditioner, |f| f),
        calls: Cell::new(0),
    };
    let mut x = case.x0.clone();
    let cfg = GmresConfig {
        record_history: true,
        ..case.cfg
    };
    let rep = match entry {
        Entry::Gmres => Some(Gmres::new(cfg).solve(&op, &pre, &case.b, &mut x)),
        Entry::FGmres => Some(FGmres::new(cfg).solve(&op, &pre, &case.b, &mut x)),
        Entry::Fixed(k) => {
            Gmres::fixed_effort(&op, &pre, k, &case.b, &mut x);
            None
        }
    };
    write!(out, "{} {:?}", case.name, entry).unwrap();
    if let Some(rep) = &rep {
        let bd = rep.breakdown.map_or("none".to_string(), |bd| {
            format!(
                "{}@{}/{:016x}",
                bd.kind.key(),
                bd.iteration,
                bits(bd.relres)
            )
        });
        write!(
            out,
            " it={} conv={} bd={} relres={:016x} hist={}/{:016x}",
            rep.iterations,
            rep.converged,
            bd,
            bits(rep.final_relres),
            rep.residual_history.len(),
            fnv(&rep.residual_history),
        )
        .unwrap();
    }
    writeln!(
        out,
        " x={:016x} a={} m={}",
        fnv(&x),
        op.calls.get(),
        pre.calls.get()
    )
    .unwrap();
    let serious = rep.as_ref().and_then(|r| r.breakdown);
    if serious.is_some_and(|bd| bd.kind == BreakdownKind::ZeroNormalization) {
        no_worse_than_the_guess(case.a, &case.b, &case.x0, &x);
    }
    (rep, x)
}

/// `‖b − A x‖`.
fn residual_norm(a: &Csr, b: &[f64], x: &[f64]) -> f64 {
    let ax = a.mul_vec(x);
    b.iter()
        .zip(&ax)
        .map(|(u, v)| (u - v) * (u - v))
        .sum::<f64>()
        .sqrt()
}

/// A serious breakdown hands back a finite iterate whose residual is no
/// larger than the guess's.
fn no_worse_than_the_guess(a: &Csr, b: &[f64], x0: &[f64], x: &[f64]) {
    assert!(x.iter().all(|v| v.is_finite()), "x = {x:?}");
    let (r, r0) = (residual_norm(a, b, x), residual_norm(a, b, x0));
    assert!(r <= r0, "‖b − A x‖ = {r:e} > ‖b − A x₀‖ = {r0:e}");
}

fn laplacian_2d(nx: usize) -> Csr {
    let mut coo = Coo::new(nx * nx, nx * nx);
    for iy in 0..nx {
        for ix in 0..nx {
            let i = iy * nx + ix;
            coo.push(i, i, 4.0);
            if ix > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if ix + 1 < nx {
                coo.push(i, i + 1, -1.0);
            }
            if iy > 0 {
                coo.push(i, i - nx, -1.0);
            }
            if iy + 1 < nx {
                coo.push(i, i + nx, -1.0);
            }
        }
    }
    coo.to_csr()
}

fn diagonal(d: &[f64]) -> Csr {
    let mut coo = Coo::new(d.len(), d.len());
    for (i, &v) in d.iter().enumerate() {
        coo.push(i, i, v);
    }
    coo.to_csr()
}

/// The cyclic shift `(A x)_i = x_{i+1 mod n}`: GMRES on `e_0` makes no
/// progress for `n − 1` steps.
fn cyclic_shift(n: usize) -> Csr {
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, (i + 1) % n, 1.0);
    }
    coo.to_csr()
}

fn wavy(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i % 5) as f64) - 1.75).collect()
}

fn unit(n: usize, i: usize) -> Vec<f64> {
    let mut e = vec![0.0; n];
    e[i] = 1.0;
    e
}

const BOTH: [Entry; 2] = [Entry::Gmres, Entry::FGmres];

/// The reported entries' cases, in table order.
fn reported_cases(out: &mut String) {
    let lap8 = laplacian_2d(8);
    let lap6 = laplacian_2d(6);
    let eye = diagonal(&[1.0; 6]);
    let half_singular = diagonal(&[1.0, 1.0, 0.0, 0.0]);
    let shift = cyclic_shift(12);
    let cfg = GmresConfig::default();
    let mut all = |case: Case<'_>| -> Vec<SolveReport> {
        BOTH.iter()
            .map(|&e| run(out, &case, e).0.expect("reported entry"))
            .collect()
    };

    // Target met inside the first cycle …
    let reps = all(Case {
        ilu0: true,
        ..Case::new("in_cycle", &lap8)
    });
    let its = reps[0].iterations;
    assert!(reps.iter().all(|r| r.converged && r.iterations == its) && its < cfg.restart);
    // … and on a cycle's last column (`k == restart`).
    for r in all(Case {
        ilu0: true,
        cfg: GmresConfig {
            restart: its,
            ..cfg
        },
        ..Case::new("last_column", &lap8)
    }) {
        assert!(r.converged && r.iterations == its);
    }
    // In a later cycle, from a non-zero guess.
    for r in all(Case {
        x0: (0..64).map(|i| 0.5 - (i % 3) as f64).collect(),
        cfg: GmresConfig {
            restart: 7,
            max_iters: 400,
            ..cfg
        },
        ..Case::new("later_cycle", &lap8)
    }) {
        assert!(r.converged && r.iterations > 7 && r.iterations % 7 != 0);
    }
    // At a restart boundary: the last column's estimate is above the target,
    // the cycle's true residual below it. The target is put between the two
    // readings of a five-step probe, which differ by rounding alone.
    let probe = &all(Case {
        cfg: GmresConfig {
            restart: 5,
            max_iters: 5,
            ..cfg
        },
        ..Case::new("boundary_probe", &lap8)
    })[0];
    let r0 = probe.residual_history[0];
    let (est, tru) = (probe.residual_history[5], probe.final_relres * r0);
    assert!(est > tru, "probe: estimate {est:e} vs true {tru:e}");
    let rel_tol = 0.5 * (est + tru) / r0;
    for r in all(Case {
        cfg: GmresConfig {
            restart: 5,
            max_iters: 100,
            rel_tol,
            ..cfg
        },
        ..Case::new("boundary", &lap8)
    }) {
        assert!(r.converged && r.iterations == 5 && r.residual_history[5] > rel_tol * r0);
    }

    // Happy breakdown: the first Krylov space is invariant and holds the answer.
    for r in all(Case::new("happy", &eye)) {
        assert!(r.converged && r.iterations == 1);
    }
    // Serious breakdown: invariant after two steps (every product is exact in
    // binary), the operator singular on it.
    for r in all(Case {
        b: vec![1.0; 4],
        ..Case::new("zero_norm", &half_singular)
    }) {
        assert_eq!(r.breakdown.unwrap().kind.key(), "zero_normalization");
    }
    // A non-finite column on the third Arnoldi step (the operator's fourth
    // product); the finite prefix forms the answer.
    for r in all(Case {
        tamper: Tamper::Nan(4),
        ..Case::new("nan_column", &lap6)
    }) {
        let bd = r.breakdown.unwrap();
        assert_eq!((bd.kind.key(), bd.iteration), ("non_finite", 3));
    }
    // … and on the very first step: nothing to form an answer from.
    all(Case {
        tamper: Tamper::Nan(2),
        ..Case::new("nan_first_column", &lap6)
    });
    // A non-finite opening residual.
    let mut b = wavy(36);
    b[2] = f64::NAN;
    for r in all(Case {
        b,
        ..Case::new("nan_rhs", &lap6)
    }) {
        assert_eq!(r.breakdown.unwrap().iteration, 0);
    }
    // Divergence guard: the product behind the first cycle's closing residual
    // is scaled by 1e12, so the first cycle closes 1e8 above ‖r₀‖.
    for r in all(Case {
        cfg: GmresConfig {
            restart: 3,
            max_iters: 20,
            ..cfg
        },
        tamper: Tamper::Scale(5, 1e12),
        ..Case::new("diverged", &lap6)
    }) {
        let bd = r.breakdown.unwrap();
        assert_eq!((bd.kind.key(), bd.iteration), ("divergence", 3));
    }
    // Stagnation window: four one-step cycles without progress.
    for r in all(Case {
        b: unit(12, 0),
        cfg: GmresConfig {
            restart: 1,
            stall_window: 4,
            max_iters: 30,
            ..cfg
        },
        ..Case::new("stalled", &shift)
    }) {
        let bd = r.breakdown.unwrap();
        assert_eq!((bd.kind.key(), bd.iteration), ("stagnation", 5));
    }
    // The same system without the guard runs to its `n`-th step and converges.
    all(Case {
        b: unit(12, 0),
        ..Case::new("unguarded", &shift)
    });
    // Budget spent: mid-cycle, at a boundary, in a second cycle.
    for (name, restart, max_iters) in [
        ("budget_mid_cycle", 20, 3),
        ("budget_at_boundary", 5, 10),
        ("budget_second_cycle", 5, 7),
    ] {
        for r in all(Case {
            cfg: GmresConfig {
                restart,
                max_iters,
                rel_tol: 1e-14,
                ..cfg
            },
            ..Case::new(name, &lap8)
        }) {
            assert!(!r.converged && r.breakdown.is_none() && r.iterations == max_iters);
        }
    }
    // The estimate meets a target the true residual misses (rounding floor):
    // restarts from `x` until the true residual meets it too …
    let reps = all(Case {
        ilu0: true,
        cfg: GmresConfig {
            max_iters: 40,
            rel_tol: 2.041_084_017_571_573_4e-16,
            ..cfg
        },
        ..Case::new("disagree_restart", &lap8)
    });
    let target = 2.041_084_017_571_573_4e-16 * reps[0].residual_history[0];
    let met = |r: &SolveReport| r.residual_history.iter().filter(|&&e| e <= target).count();
    assert!(reps[0].converged && met(&reps[0]) > 1);
    assert!(reps[0].final_relres * reps[0].residual_history[0] <= target);
    // … and never accepted, until the budget is gone.
    for r in all(Case {
        ilu0: true,
        cfg: GmresConfig {
            max_iters: 40,
            rel_tol: 1e-16,
            ..cfg
        },
        ..Case::new("disagree_budget", &lap8)
    }) {
        assert!(!r.converged && r.breakdown.is_none() && r.iterations == 40);
    }
    // … and forced: the closing product of an honest, converged cycle doubled.
    all(Case {
        ilu0: true,
        tamper: Tamper::Scale(its + 2, 2.0),
        ..Case::new("disagree_forced", &lap8)
    });
    // Nothing to do: an exact guess (integers, so `b − A x₀` is exactly 0),
    // and a zero right-hand side solved to the absolute floor.
    let x_true: Vec<f64> = (0..36).map(|i| i as f64).collect();
    for r in all(Case {
        b: lap6.mul_vec(&x_true),
        x0: x_true,
        ..Case::new("exact_guess", &lap6)
    }) {
        assert!(r.converged && r.iterations == 0);
    }
    all(Case {
        b: vec![0.0; 36],
        x0: vec![1.0; 36],
        cfg: GmresConfig {
            abs_tol: 1e-14,
            ..cfg
        },
        ..Case::new("zero_rhs", &lap6)
    });
}

/// `Gmres::fixed_effort`: the same exits, seen through `x` and the counts.
/// Each case first runs the general solve the entry stands for (one product
/// earlier than the entry, so the tampered call is one later), which names
/// the exit; the entry must then leave the same bits in `x`.
fn fixed_effort_cases(out: &mut String) {
    let lap8 = laplacian_2d(8);
    let lap6 = laplacian_2d(6);
    let eye = diagonal(&[1.0; 6]);
    let half_singular = diagonal(&[1.0, 1.0, 0.0, 0.0]);
    let two_eigs = diagonal(&[3.0, 3.0, 3.0, 0.7, 0.7, 0.7, 0.7]);
    let shift = cyclic_shift(12);
    let mut fixed = |k: usize, exit: &str, case: Case<'_>| {
        let n = case.a.n_rows();
        let general = Case {
            b: case.b.clone(),
            x0: vec![0.0; n],
            cfg: GmresConfig {
                restart: k.max(1),
                max_iters: k.max(1),
                rel_tol: 1e-12,
                stall_window: 0,
                ..Default::default()
            },
            tamper: match case.tamper {
                Tamper::Never => Tamper::Never,
                Tamper::Nan(at) => Tamper::Nan(at + 1),
                Tamper::Scale(at, s) => Tamper::Scale(at + 1, s),
            },
            ..case
        };
        let (rep, x_general) = run(out, &general, Entry::Gmres);
        let rep = rep.expect("reported entry");
        let seen = match rep.breakdown {
            Some(bd) => bd.kind.key(),
            None if rep.converged => "target",
            None => "budget",
        };
        assert_eq!(seen, exit, "{}", case.name);
        // The entry overwrites its output: whatever `x` held must not matter.
        let entry = Case {
            x0: vec![f64::NAN; n],
            tamper: case.tamper,
            ..general
        };
        let x = run(out, &entry, Entry::Fixed(k)).1;
        assert_eq!(fnv(&x), fnv(&x_general), "{}", case.name);
        if exit == "zero_normalization" {
            no_worse_than_the_guess(entry.a, &entry.b, &vec![0.0; n], &x);
        }
    };

    // Budget spent: `k` products, no opening or closing residual.
    for k in [0, 1, 5] {
        fixed(
            k,
            "budget",
            Case {
                ilu0: true,
                ..Case::new("fx_budget", &lap8)
            },
        );
    }
    // Estimate under 1e-12·‖b‖ after two of five steps: the general path.
    fixed(5, "target", Case::new("fx_target", &two_eigs));
    fixed(5, "target", Case::new("fx_happy", &eye));
    fixed(
        5,
        "zero_normalization",
        Case {
            b: vec![1.0; 4],
            ..Case::new("fx_zero_norm", &half_singular)
        },
    );
    fixed(
        5,
        "non_finite",
        Case {
            tamper: Tamper::Nan(3),
            ..Case::new("fx_nan_column", &lap6)
        },
    );
    let mut b = wavy(36);
    b[2] = f64::NAN;
    fixed(
        5,
        "non_finite",
        Case {
            b,
            ..Case::new("fx_nan_rhs", &lap6)
        },
    );
    // The closing product of the early exit scaled by 1e12: the estimate and
    // the true residual disagree, and the cycle closes 1e8 above ‖b‖.
    fixed(
        5,
        "divergence",
        Case {
            tamper: Tamper::Scale(3, 1e12),
            ..Case::new("fx_diverged", &two_eigs)
        },
    );
    // A stalled estimate is no exit: one cycle has no boundary to judge
    // stagnation at, so the budget is spent.
    fixed(
        8,
        "budget",
        Case {
            b: unit(12, 0),
            ..Case::new("fx_stalled", &shift)
        },
    );
}

const EXPECTED: &str = "\
in_cycle Gmres it=9 conv=true bd=none relres=3e8e01a1f2e8f4c1 hist=10/df7fbc154682264e x=540db5b5464aa7f5 a=11 m=10\n\
in_cycle FGmres it=9 conv=true bd=none relres=3e8e01a1f2ef22f3 hist=10/df7fbc154682264e x=c19bda3c8157c273 a=11 m=9\n\
last_column Gmres it=9 conv=true bd=none relres=3e8e01a1f2e8f4c1 hist=10/df7fbc154682264e x=540db5b5464aa7f5 a=11 m=10\n\
last_column FGmres it=9 conv=true bd=none relres=3e8e01a1f2ef22f3 hist=10/df7fbc154682264e x=c19bda3c8157c273 a=11 m=9\n\
later_cycle Gmres it=34 conv=true bd=none relres=3eb04dceb6d5118c hist=35/f2154b883080e2c4 x=b276b13ed2b894db a=40 m=39\n\
later_cycle FGmres it=34 conv=true bd=none relres=3eb04dceb6d51857 hist=35/6aefb0848b66a213 x=8d5fbb429ea6b504 a=40 m=34\n\
boundary_probe Gmres it=5 conv=false bd=none relres=3fb29598db0d0175 hist=6/982ec098b3ad6cdd x=71658f204fe7e96a a=7 m=6\n\
boundary_probe FGmres it=5 conv=false bd=none relres=3fb29598db0d0175 hist=6/982ec098b3ad6cdd x=71658f204fe7e96a a=7 m=5\n\
boundary Gmres it=5 conv=true bd=none relres=3fb29598db0d0175 hist=6/982ec098b3ad6cdd x=71658f204fe7e96a a=7 m=6\n\
boundary FGmres it=5 conv=true bd=none relres=3fb29598db0d0175 hist=6/982ec098b3ad6cdd x=71658f204fe7e96a a=7 m=5\n\
happy Gmres it=1 conv=true bd=none relres=3caeb3e27588ede0 hist=2/67a881b7e86a0426 x=722fa8d5055eadf6 a=3 m=2\n\
happy FGmres it=1 conv=true bd=none relres=3caeb3e27588ede0 hist=2/67a881b7e86a0426 x=722fa8d5055eadf6 a=3 m=1\n\
zero_norm Gmres it=2 conv=false bd=zero_normalization@2/3fe6a09e667f3bcd relres=3fe6a09e667f3bcd hist=3/d5b2eb0965b26c84 x=d137d9e6997fe665 a=4 m=3\n\
zero_norm FGmres it=2 conv=false bd=zero_normalization@2/3fe6a09e667f3bcd relres=3fe6a09e667f3bcd hist=3/d5b2eb0965b26c84 x=d137d9e6997fe665 a=4 m=2\n\
nan_column Gmres it=3 conv=false bd=non_finite@3/3fc857c896ab8754 relres=3fc857c896ab8754 hist=3/14614be2527a2c48 x=22872bd02b7eae6f a=5 m=4\n\
nan_column FGmres it=3 conv=false bd=non_finite@3/3fc857c896ab8754 relres=3fc857c896ab8754 hist=3/14614be2527a2c48 x=22872bd02b7eae6f a=5 m=3\n\
nan_first_column Gmres it=1 conv=false bd=non_finite@1/3ff0000000000000 relres=3ff0000000000000 hist=1/033a138b2dd04bbf x=66e368127e9e89a5 a=3 m=1\n\
nan_first_column FGmres it=1 conv=false bd=non_finite@1/3ff0000000000000 relres=3ff0000000000000 hist=1/033a138b2dd04bbf x=66e368127e9e89a5 a=3 m=1\n\
nan_rhs Gmres it=0 conv=false bd=non_finite@0/7ff8000000000000 relres=7ff8000000000000 hist=1/aa96293229a2e940 x=66e368127e9e89a5 a=1 m=0\n\
nan_rhs FGmres it=0 conv=false bd=non_finite@0/7ff8000000000000 relres=7ff8000000000000 hist=1/aa96293229a2e940 x=66e368127e9e89a5 a=1 m=0\n\
diverged Gmres it=3 conv=false bd=divergence@3/426cddeac8b8e2b7 relres=426cddeac8b8e2b7 hist=4/2f3eecdc4c391eb6 x=4a4766cb6702c346 a=5 m=4\n\
diverged FGmres it=3 conv=false bd=divergence@3/426cddeac8b8e2b7 relres=426cddeac8b8e2b7 hist=4/2f3eecdc4c391eb6 x=4a4766cb6702c346 a=5 m=3\n\
stalled Gmres it=5 conv=false bd=stagnation@5/3ff0000000000000 relres=3ff0000000000000 hist=6/73d879df6e652b05 x=0243cfa845185aa5 a=11 m=10\n\
stalled FGmres it=5 conv=false bd=stagnation@5/3ff0000000000000 relres=3ff0000000000000 hist=6/73d879df6e652b05 x=0243cfa845185aa5 a=11 m=5\n\
unguarded Gmres it=12 conv=true bd=none relres=0000000000000000 hist=13/c35ce21652485f85 x=98189df07fdd9658 a=14 m=13\n\
unguarded FGmres it=12 conv=true bd=none relres=0000000000000000 hist=13/c35ce21652485f85 x=98189df07fdd9658 a=14 m=12\n\
budget_mid_cycle Gmres it=3 conv=false bd=none relres=3fc0cb2c35affcf4 hist=4/8d1adb564e07f6ee x=78a29071e8c2d539 a=5 m=4\n\
budget_mid_cycle FGmres it=3 conv=false bd=none relres=3fc0cb2c35affcf4 hist=4/8d1adb564e07f6ee x=78a29071e8c2d539 a=5 m=3\n\
budget_at_boundary Gmres it=10 conv=false bd=none relres=3f928734e8de0b59 hist=11/d1123fdd87c20c96 x=971f7407e111116b a=13 m=12\n\
budget_at_boundary FGmres it=10 conv=false bd=none relres=3f928734e8de0b58 hist=11/d1123fdd87c20c96 x=9fd4d661e64869df a=13 m=10\n\
budget_second_cycle Gmres it=7 conv=false bd=none relres=3fa67dbd2a78839f hist=8/482506fbf054b9c6 x=0301e279c7641802 a=10 m=9\n\
budget_second_cycle FGmres it=7 conv=false bd=none relres=3fa67dbd2a7883a2 hist=8/482506fbf054b9c6 x=39d38680e4e4dd14 a=10 m=7\n\
disagree_restart Gmres it=29 conv=true bd=none relres=3cac64c8c61c207b hist=30/32c411e467e44a3e x=c28c70f082e1510b a=40 m=39\n\
disagree_restart FGmres it=23 conv=true bd=none relres=3caa1be091847f53 hist=24/0fd48eeb1bd603a8 x=f052b1df36927fad a=28 m=23\n\
disagree_budget Gmres it=40 conv=false bd=none relres=3ca84273b69c6137 hist=41/889a7fc03befe852 x=1629a04d410a3c93 a=62 m=61\n\
disagree_budget FGmres it=40 conv=false bd=none relres=3ca96385cac54a52 hist=41/56ed3b9cc3507020 x=6b6afa03bc0bd4cc a=62 m=40\n\
disagree_forced Gmres it=27 conv=true bd=none relres=3e8e022b19ea7714 hist=28/35c74b669639d3fc x=f41d95329e9a12e4 a=31 m=30\n\
disagree_forced FGmres it=27 conv=true bd=none relres=3e8e022b19d40314 hist=28/0d5264f863dd61d1 x=e588d9fda503463b a=31 m=27\n\
exact_guess Gmres it=0 conv=true bd=none relres=0000000000000000 hist=1/a8c7f832281a39c5 x=f5c8f3a4bcd271b0 a=1 m=0\n\
exact_guess FGmres it=0 conv=true bd=none relres=0000000000000000 hist=1/a8c7f832281a39c5 x=f5c8f3a4bcd271b0 a=1 m=0\n\
zero_rhs Gmres it=6 conv=true bd=none relres=3cd6cdb2bbb212ea hist=7/fc8544c208eebc1b x=60ec6a2b756d5299 a=8 m=7\n\
zero_rhs FGmres it=6 conv=true bd=none relres=3cd36a10aa8245cc hist=7/fc8544c208eebc1b x=f7f3460560492fdc a=8 m=6\n\
fx_budget Gmres it=1 conv=false bd=none relres=3fbfd39f93b204e0 hist=2/efbea8a8e446a733 x=db3c182141c51d34 a=3 m=2\n\
fx_budget Fixed(0) x=db3c182141c51d34 a=1 m=2\n\
fx_budget Gmres it=1 conv=false bd=none relres=3fbfd39f93b204e0 hist=2/efbea8a8e446a733 x=db3c182141c51d34 a=3 m=2\n\
fx_budget Fixed(1) x=db3c182141c51d34 a=1 m=2\n\
fx_budget Gmres it=5 conv=false bd=none relres=3f3142bacc720512 hist=6/32058ff4ca68102f x=b98b8a3192400050 a=7 m=6\n\
fx_budget Fixed(5) x=b98b8a3192400050 a=5 m=6\n\
fx_target Gmres it=2 conv=true bd=none relres=3cb6c773cf7b80d0 hist=3/b1f420c02463b79c x=da20e75a1fbc1dc4 a=4 m=3\n\
fx_target Fixed(5) x=da20e75a1fbc1dc4 a=3 m=3\n\
fx_happy Gmres it=1 conv=true bd=none relres=3caeb3e27588ede0 hist=2/67a881b7e86a0426 x=722fa8d5055eadf6 a=3 m=2\n\
fx_happy Fixed(5) x=722fa8d5055eadf6 a=2 m=2\n\
fx_zero_norm Gmres it=2 conv=false bd=zero_normalization@2/3fe6a09e667f3bcd relres=3fe6a09e667f3bcd hist=3/d5b2eb0965b26c84 x=d137d9e6997fe665 a=4 m=3\n\
fx_zero_norm Fixed(5) x=d137d9e6997fe665 a=3 m=3\n\
fx_nan_column Gmres it=3 conv=false bd=non_finite@3/3fc857c896ab8754 relres=3fc857c896ab8754 hist=3/14614be2527a2c48 x=22872bd02b7eae6f a=5 m=4\n\
fx_nan_column Fixed(5) x=22872bd02b7eae6f a=4 m=4\n\
fx_nan_rhs Gmres it=0 conv=false bd=non_finite@0/7ff8000000000000 relres=7ff8000000000000 hist=1/aa96293229a2e940 x=66e368127e9e89a5 a=1 m=0\n\
fx_nan_rhs Fixed(5) x=66e368127e9e89a5 a=0 m=0\n\
fx_diverged Gmres it=2 conv=false bd=divergence@2/426d1a94a1ffe002 relres=426d1a94a1ffe002 hist=3/b1f420c02463b79c x=da20e75a1fbc1dc4 a=4 m=3\n\
fx_diverged Fixed(5) x=da20e75a1fbc1dc4 a=3 m=3\n\
fx_stalled Gmres it=8 conv=false bd=none relres=3ff0000000000000 hist=9/beee4352ffcd9d38 x=0243cfa845185aa5 a=10 m=9\n\
fx_stalled Fixed(8) x=0243cfa845185aa5 a=8 m=9\n\
";

#[test]
fn every_exit_reproduces_its_pinned_report_and_solution() {
    let mut out = String::new();
    reported_cases(&mut out);
    fixed_effort_cases(&mut out);
    assert!(out == EXPECTED, "the table is now:\n{out}");
}

/// The serious breakdown across two ranks: `DistGmres` runs the same driver
/// with the distributed setting, reaches the same exit, hands back a finite
/// iterate no worse than the guess, and both ranks report the same.
#[test]
fn a_serious_breakdown_across_two_ranks_leaves_a_finite_iterate() {
    let a = diagonal(&[1.0, 1.0, 0.0, 0.0]);
    let b = vec![1.0; 4];
    let owner = [0, 0, 1, 1];
    let (a, b, owner) = (&a, &b, &owner);
    let ranks = Universe::run(2, |comm| {
        let dm = DistMatrix::from_global(a, owner, comm.rank(), 2);
        let b_loc = scatter_vector(&dm.layout, b);
        let mut x = vec![0.0; dm.layout.n_owned()];
        let cfg = GmresConfig {
            record_history: true,
            ..GmresConfig::distributed()
        };
        let rep = DistGmres::new(cfg).solve(comm, &dm, &IdentityDistPrecond, &b_loc, &mut x);
        let bd = rep.breakdown.expect("a breakdown");
        let history: Vec<u64> = rep.residual_history.iter().map(|v| v.to_bits()).collect();
        let report = (
            rep.iterations,
            rep.converged,
            (bd.kind.key(), bd.iteration, bd.relres.to_bits()),
            rep.final_relres.to_bits(),
            history,
        );
        (report, gather_vector(comm, &dm.layout, &x, b.len()))
    });
    let (report, x) = (
        &ranks[0].0,
        ranks[0].1.as_ref().expect("gathered on rank 0"),
    );
    assert_eq!(report.2 .0, "zero_normalization");
    assert_eq!(&ranks[1].0, report, "rank 1's report");
    no_worse_than_the_guess(a, b, &[0.0; 4], x);
}
