//! End-to-end telemetry tests: a traced `run_case` must expose the full
//! phase/convergence/communication picture, and an untraced run must be
//! bit-identical to the seed behaviour (no-op sink).

use parapre_core::{
    build_case, partition_case, try_build_dist_precond, CaseId, CaseSize, PrecondKind,
};
use parapre_dist::{scatter_vector, DistGmres, DistMatrix};
use parapre_engine::{run_case, run_case_traced, SessionConfig};
use parapre_metrics::{names, EventKind, RankTrace};
use parapre_mpisim::Universe;

fn distinct_span_names(tr: &RankTrace) -> std::collections::BTreeSet<&str> {
    tr.events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::SpanEnter { name } => Some(name.as_str()),
            _ => None,
        })
        .collect()
}

#[test]
fn traced_runs_emit_full_telemetry_for_all_preconditioners() {
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    for kind in PrecondKind::ALL {
        let cfg = SessionConfig::paper(kind, 3);
        let (res, traces) = run_case_traced(&case, &cfg, true);
        assert!(res.converged, "{} did not converge", kind.label());
        assert_eq!(traces.len(), 3, "{}: one trace per rank", kind.label());

        for tr in &traces {
            let spans = distinct_span_names(tr);
            assert!(
                spans.len() >= 4,
                "{} rank {}: only {} distinct phases: {spans:?}",
                kind.label(),
                tr.rank,
                spans.len()
            );
            assert!(
                spans.contains(names::SOLVE),
                "{}: no solve span",
                kind.label()
            );
            assert!(
                spans.contains(names::SETUP),
                "{}: no setup span",
                kind.label()
            );

            // The convergence stream carries every outer iteration.
            let iters: Vec<u64> = tr
                .events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Iter { iter, .. } => Some(iter),
                    _ => None,
                })
                .collect();
            assert_eq!(iters.len(), res.iterations, "{}: iter events", kind.label());
            assert_eq!(iters.last().copied(), Some(res.iterations as u64));
            let s = tr.summary();
            assert!(s.final_relres.is_finite());
            assert!(s.final_relres <= 1e-6 * 1.01, "relres {}", s.final_relres);
        }

        // Merged phase summary folded into the result.
        let merged = res.phases.as_ref().expect("traced run has phases");
        assert_eq!(merged.iterations, res.iterations as u64);
        let solve_s = merged.phase_seconds(names::SOLVE);
        assert!(solve_s > 0.0);
        assert!(
            solve_s <= res.wall_seconds + 1e-3,
            "{}: solve span {solve_s}s vs wall {}s",
            kind.label(),
            res.wall_seconds
        );
        // Sub-phases of the solve nest inside it.
        for sub in [names::SPMV, names::HALO, names::ORTH, names::PRECOND_APPLY] {
            assert!(
                merged.phase_seconds(sub) <= solve_s + 1e-3,
                "{}: {sub} exceeds solve time",
                kind.label()
            );
        }
    }
}

#[test]
fn trace_comm_totals_match_commstats_exactly() {
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let cfg = SessionConfig::paper(PrecondKind::Schur1, 3);
    let node_part = partition_case(&case, cfg.scheme, cfg.n_ranks, cfg.partition_seed);
    let owner = case.dof_owner(&node_part.owner);
    let (a, b, owner_ref) = (&case.sys.a, &case.sys.b, &owner);
    let cfg_ref = &cfg;

    let outs = Universe::run(3, move |comm| {
        parapre_metrics::install(comm.rank());
        let dm = DistMatrix::from_global(a, owner_ref, comm.rank(), 3);
        let (m, _) = try_build_dist_precond(PrecondKind::Schur1, &dm, comm, a, &cfg_ref.params)
            .expect("Schur1 setup");
        let b_loc = scatter_vector(&dm.layout, b);
        let mut x = vec![0.0; dm.layout.n_owned()];
        DistGmres::new(cfg_ref.gmres).solve(comm, &dm, &m, &b_loc, &mut x);
        let stats = comm.stats();
        let peer_stats: Vec<_> = dm
            .layout
            .neighbors
            .iter()
            .map(|&q| (q, comm.peer_stats()[q]))
            .collect();
        (
            parapre_metrics::take().expect("recorder installed"),
            stats,
            peer_stats,
        )
    });

    for (tr, stats, peer_stats) in outs {
        let s = tr.summary();
        assert_eq!(s.comm.all.msgs_sent, stats.msgs_sent, "rank {}", tr.rank);
        assert_eq!(s.comm.all.bytes_sent, stats.bytes_sent, "rank {}", tr.rank);
        assert_eq!(s.comm.all.msgs_recv, stats.msgs_recv, "rank {}", tr.rank);
        assert_eq!(s.comm.all.bytes_recv, stats.bytes_recv, "rank {}", tr.rank);
        // Per-neighbor accounting agrees between the trace and the comm.
        for (q, ps) in peer_stats {
            let per = s.comm.per_peer.get(&q).expect("traced peer");
            assert_eq!(per.bytes_sent, ps.bytes_sent, "rank {} -> {q}", tr.rank);
            assert_eq!(per.bytes_recv, ps.bytes_recv, "rank {} <- {q}", tr.rank);
        }
    }
}

#[test]
fn traced_jsonl_round_trips_per_rank() {
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let (_, traces) = run_case_traced(&case, &SessionConfig::paper(PrecondKind::Block2, 3), true);
    for tr in traces {
        let back = RankTrace::from_jsonl(&tr.to_jsonl()).expect("parse");
        assert_eq!(back, tr);
    }
}

#[test]
fn noop_sink_changes_nothing() {
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let cfg = SessionConfig::paper(PrecondKind::Schur1, 3);
    let (plain, no_traces) = run_case_traced(&case, &cfg, false);
    assert!(no_traces.is_empty());
    assert!(plain.phases.is_none());
    // A traced run of the same cell produces identical deterministic
    // fields: the recorder must not perturb the computation.
    let (traced, _) = run_case_traced(&case, &cfg, true);
    let plain2 = run_case(&case, &cfg);
    for res in [&traced, &plain2] {
        assert_eq!(res.iterations, plain.iterations);
        assert_eq!(res.converged, plain.converged);
        assert_eq!(res.final_relres, plain.final_relres);
        assert_eq!(res.total_msgs, plain.total_msgs);
        assert_eq!(res.total_bytes, plain.total_bytes);
        assert_eq!(res.edge_cut, plain.edge_cut);
    }
}
