//! The build and solve pipelines of a session, replayed through the
//! product's public functions with a span around each call.
//!
//! `SolverSession::build` and `SolverSession::solve` are timed whole, as
//! netd runs them. Their insides cannot be reached from here, so the same
//! steps are replayed beside them: partition, per-rank extraction and
//! preconditioner build for the build; scatter, GMRES (with the operator and
//! the preconditioner wrapped so that each application is a child span),
//! residual and gather for the solve. What the whole costs beyond the
//! replayed parts is reported as its own `…unattributed` row.

use crate::system::System;
use parapre_bench_e2e::spans::{totals_by_name, Recorder, Span};
use parapre_core::build_dist_precond_with_fallback;
use parapre_dist::{gather_vector, scatter_vector, DistGmres, DistMatrix, DistOp, DistPrecond};
use parapre_mpisim::{Comm, CommStats, Universe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One rank's frozen build product, as a session keeps it.
pub struct RankBuilt {
    pub dm: DistMatrix,
    pub precond: Box<dyn DistPrecond>,
    pub fallbacks: usize,
    pub pivot_shifts: usize,
}

/// Spans of one rank thread. The wrappers below are shared by reference
/// with the solver, which needs `Sync`; the mutex is never contended.
struct RankTracer {
    rec: Mutex<Recorder>,
    /// Span that applications of the operator and preconditioner belong to.
    parent: AtomicU64,
    req: u64,
}

impl RankTracer {
    fn new(epoch: Instant, rank: usize, req: u64) -> RankTracer {
        RankTracer {
            // Rank 0 of the recorder id space is the launching thread.
            rec: Mutex::new(Recorder::new(epoch, rank as u32 + 1)),
            parent: AtomicU64::new(0),
            req,
        }
    }

    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let parent = self.parent.load(Ordering::Relaxed);
        let start = self.rec.lock().expect("tracer lock").now_ns();
        let out = f();
        let mut rec = self.rec.lock().expect("tracer lock");
        let end = rec.now_ns();
        rec.push(name, parent, self.req, start, end);
        out
    }

    /// Like [`RankTracer::timed`], and spans recorded inside `f` become
    /// children of this one.
    fn timed_parent<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let outer = self.parent.load(Ordering::Relaxed);
        let id = self
            .rec
            .lock()
            .expect("tracer lock")
            .open(name, outer, self.req);
        self.parent.store(id, Ordering::Relaxed);
        let out = f();
        self.parent.store(outer, Ordering::Relaxed);
        self.rec.lock().expect("tracer lock").close(id);
        out
    }

    fn into_spans(self) -> Vec<Span> {
        self.rec.into_inner().expect("tracer lock").spans
    }
}

struct TimedOp<'a> {
    dm: &'a DistMatrix,
    tracer: &'a RankTracer,
}

impl DistOp for TimedOp<'_> {
    fn n_owned(&self) -> usize {
        self.dm.n_owned()
    }

    fn apply(&self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        self.tracer
            .timed("dist.matvec", || DistOp::apply(self.dm, comm, x, y));
    }
}

struct TimedPrecond<'a> {
    m: &'a dyn DistPrecond,
    tracer: &'a RankTracer,
}

impl DistPrecond for TimedPrecond<'_> {
    fn apply(&self, comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        self.tracer
            .timed("core.precond_apply", || self.m.apply(comm, r, z));
    }
}

/// The replayed build: one universe, per rank `dist.extract` then
/// `core.precond_build`, under a `build.universe` span of the launcher.
pub fn replay_build(
    sys: &System,
    epoch: Instant,
    req: u64,
    spans: &mut Vec<Span>,
) -> Vec<RankBuilt> {
    let mut launcher = Recorder::new(epoch, 0);
    // Each replayed request gets its own id range on the launcher.
    let root = launcher.open("build.universe", 0, req);
    let (a, owner, cfg) = (&sys.a, &sys.owner, &sys.cfg);
    let outs = Universe::run(cfg.n_ranks, |comm| {
        let tracer = RankTracer::new(epoch, comm.rank(), req);
        tracer.parent.store(root, Ordering::Relaxed);
        let dm = tracer.timed("dist.extract", || {
            DistMatrix::from_global(a, owner, comm.rank(), cfg.n_ranks)
        });
        let built = tracer.timed("core.precond_build", || {
            build_dist_precond_with_fallback(cfg.precond, &dm, comm, a, &cfg.params)
        });
        (
            RankBuilt {
                dm,
                precond: built.precond,
                fallbacks: built.fallbacks,
                pivot_shifts: built.pivot_shifts,
            },
            tracer.into_spans(),
        )
    });
    launcher.close(root);
    spans.extend(renumber(launcher.spans, req));
    let mut ranks = Vec::new();
    for (built, rank_spans) in outs {
        ranks.push(built);
        spans.extend(renumber(rank_spans, req));
    }
    ranks
}

/// Span ids are unique per recorder; recorders are created per request, so
/// the request number is folded in to keep ids unique over the whole trace.
fn renumber(mut spans: Vec<Span>, req: u64) -> Vec<Span> {
    let shift = req << 20;
    for s in &mut spans {
        s.id += shift;
        if s.parent != 0 {
            s.parent += shift;
        }
    }
    spans
}

/// What one replayed solve produced, per rank.
pub struct RankSolve {
    pub iterations: usize,
    pub converged: bool,
    /// Traffic of the GMRES call alone.
    pub comm: CommStats,
    pub x_global: Option<Vec<f64>>,
    /// Seconds by span name on this rank (empty when untraced).
    pub matvec_s: f64,
    pub matvec_calls: u64,
    pub precond_apply_s: f64,
    pub precond_apply_calls: u64,
    pub gmres_s: f64,
    pub gmres_self_s: f64,
    /// Scatter, true residual and gather.
    pub other_s: f64,
}

pub struct ReplayedSolve {
    /// Launch to join.
    pub wall_s: f64,
    pub ranks: Vec<RankSolve>,
}

/// The replayed solve of `b`. With `traced` off the same calls are made
/// without wrappers and without spans: the pair gives the tracing overhead.
pub fn replay_solve(
    sys: &System,
    built: &[RankBuilt],
    b: &[f64],
    traced: bool,
    epoch: Instant,
    req: u64,
    spans: &mut Vec<Span>,
) -> ReplayedSolve {
    let cfg = &sys.cfg;
    let n_global = sys.a.n_rows();
    let mut launcher = Recorder::new(epoch, 0);
    let root = launcher.open("solve.universe", 0, req);
    let t0 = Instant::now();
    let outs = Universe::run(cfg.n_ranks, |comm| {
        let st = &built[comm.rank()];
        let tracer = RankTracer::new(epoch, comm.rank(), req);
        tracer.parent.store(root, Ordering::Relaxed);
        let layout = &st.dm.layout;
        let (b_loc, mut x) = tracer.timed("solve.scatter", || {
            (scatter_vector(layout, b), vec![0.0; layout.n_owned()])
        });
        let before = comm.stats();
        let gmres = DistGmres::new(cfg.gmres);
        let rep = if traced {
            let op = TimedOp {
                dm: &st.dm,
                tracer: &tracer,
            };
            let m = TimedPrecond {
                m: st.precond.as_ref(),
                tracer: &tracer,
            };
            tracer.timed_parent("dist.gmres", || gmres.solve(comm, &op, &m, &b_loc, &mut x))
        } else {
            tracer.timed_parent("dist.gmres", || {
                gmres.solve(comm, &st.dm, &st.precond, &b_loc, &mut x)
            })
        };
        let comm_stats = CommStats::delta(&comm.stats(), &before);
        tracer.timed("solve.residual", || {
            let mut ax = vec![0.0; layout.n_owned()];
            DistOp::apply(&st.dm, comm, &x, &mut ax);
            let r: Vec<f64> = b_loc.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
            (layout.norm2(comm, &r), layout.norm2(comm, &b_loc))
        });
        let x_global = tracer.timed("solve.gather", || gather_vector(comm, layout, &x, n_global));
        let rank_spans = tracer.into_spans();
        let totals = totals_by_name(&rank_spans);
        let get = |name: &str| totals.get(name).copied().unwrap_or_default();
        let out = RankSolve {
            iterations: rep.iterations,
            converged: rep.converged,
            comm: comm_stats,
            x_global,
            matvec_s: get("dist.matvec").total_s(),
            matvec_calls: get("dist.matvec").count,
            precond_apply_s: get("core.precond_apply").total_s(),
            precond_apply_calls: get("core.precond_apply").count,
            gmres_s: get("dist.gmres").total_s(),
            gmres_self_s: get("dist.gmres").self_s(),
            other_s: get("solve.scatter").total_s()
                + get("solve.residual").total_s()
                + get("solve.gather").total_s(),
        };
        (out, rank_spans)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    launcher.close(root);
    let mut ranks = Vec::new();
    if traced {
        spans.extend(renumber(launcher.spans, req));
    }
    for (out, rank_spans) in outs {
        ranks.push(out);
        if traced {
            spans.extend(renumber(rank_spans, req));
        }
    }
    ReplayedSolve { wall_s, ranks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapre_bench_e2e::inputs::Case;
    use parapre_bench_e2e::workloads::Cell;
    use parapre_engine::SolverSession;

    #[test]
    fn the_replay_does_what_the_session_does_and_its_spans_nest() {
        let cell = Cell {
            label: "tiny",
            case: Case::Tc1,
            extent: 17,
            precond: "schur2",
            new_pattern: false,
        };
        let sys = System::prepare(&cell, 3);
        let epoch = Instant::now();
        let mut spans = Vec::new();
        let built = replay_build(&sys, epoch, 1, &mut spans);
        assert_eq!(built.len(), sys.cfg.n_ranks);
        let session = SolverSession::build(&sys.a, &sys.owner, &sys.cfg).unwrap();
        let reference = session.solve(&sys.rhs[0]).unwrap();

        let traced = replay_solve(&sys, &built, &sys.rhs[0], true, epoch, 2, &mut spans);
        let plain = replay_solve(&sys, &built, &sys.rhs[0], false, epoch, 3, &mut spans);
        for r in [&traced, &plain] {
            assert_eq!(r.ranks[0].iterations, reference.iterations);
            let x = r.ranks[0].x_global.as_ref().unwrap();
            assert!(sys.true_relres(&sys.rhs[0], x) < 1e-5);
        }
        // Wrapping the operator and the preconditioner changes no traffic.
        assert_eq!(
            traced.ranks[0].comm.msgs_sent,
            plain.ranks[0].comm.msgs_sent
        );
        assert_eq!(
            traced.ranks[0].comm.bytes_sent,
            plain.ranks[0].comm.bytes_sent
        );
        for r in &traced.ranks {
            // One preconditioner application per iteration; the operator
            // also computes the residual at each restart.
            assert_eq!(r.precond_apply_calls as usize, r.iterations);
            assert!(r.matvec_calls as usize >= r.iterations);
            let parts = r.matvec_s + r.precond_apply_s + r.gmres_self_s;
            assert!((parts - r.gmres_s).abs() < 1e-9, "{parts} vs {}", r.gmres_s);
        }
        assert_eq!(plain.ranks[0].matvec_calls, 0);

        // Ids are unique over the whole trace and every parent exists.
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), spans.len());
        for s in spans.iter().filter(|s| s.parent != 0) {
            let parent = spans
                .iter()
                .find(|p| p.id == s.parent)
                .expect("parent recorded");
            assert_eq!(parent.req, s.req);
        }
        let names = |n: &str| spans.iter().filter(|s| s.name == n).count();
        assert_eq!(names("build.universe"), 1);
        assert_eq!(names("dist.extract"), sys.cfg.n_ranks);
        assert_eq!(names("core.precond_build"), sys.cfg.n_ranks);
        assert_eq!(names("dist.gmres"), sys.cfg.n_ranks);
    }
}
