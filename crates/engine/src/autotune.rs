//! Fingerprint-keyed autotuning: learn, per matrix, which preconditioner
//! answers fastest, and select it for `"precond":"auto"` jobs.
//!
//! Every finished solve folds an outcome record — preconditioner rung,
//! wall time, iterations, pivot shifts, fallback rungs, convergence — into
//! the [`AutoTuner`], keyed by the matrix's content
//! [`fingerprint`](parapre_sparse::Csr::fingerprint). Non-auto jobs feed
//! the tuner passively (one hash-map update per job, no decision cost);
//! `"precond":"auto"` jobs consult it:
//!
//! * **explore** — while any candidate rung has fewer than
//!   [`AutoTuner::explore_trials`] converged samples for this fingerprint,
//!   pick the least-tried one, so cold matrices sweep the candidate set;
//! * **exploit** — otherwise pick the rung with the lowest mean solve
//!   time among rungs that converged, tie-broken by iteration count.
//!
//! Records survive restarts through [`AutoTuner::save`] /
//! [`AutoTuner::load`] (flat JSONL, one record per line), so a redeployed
//! `parapre-netd` starts warm. The same numbers are also visible live in
//! the `parapre_solve_us{fp,precond}` keyed histograms from the metrics
//! layer; the tuner keeps its own compact sums so selection stays O(rungs)
//! and restart-persistent.

use parapre_core::PrecondKind;
use parapre_metrics::flatjson::{self, JsonValue};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::Mutex;

/// The candidate rungs an `"auto"` job sweeps, cheapest-to-build first so
/// exploration makes forward progress even on hostile matrices.
///
/// `SchurML` is in the arm set but conditionally: its strict build policy
/// refuses matrices whose coarse factorization needs shifts, and a refused
/// build records a fallback rung. [`AutoTuner::select`] drops the arm for
/// any fingerprint whose `SchurML` record shows `fallbacks > 0`, so a
/// matrix that cannot host the rung falls out of the sweep instead of
/// poisoning the tuner state with repeat build failures.
pub const AUTO_CANDIDATES: [PrecondKind; 5] = [
    PrecondKind::Block1,
    PrecondKind::Block2,
    PrecondKind::Schur1,
    PrecondKind::Schur2,
    PrecondKind::schurml_default(),
];

/// Accumulated outcomes of one (fingerprint, preconditioner) pair.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TuneRecord {
    /// Solves recorded.
    pub n: u64,
    /// Of which converged.
    pub converged: u64,
    /// Total solve wall time (µs) over converged solves.
    pub solve_us: u64,
    /// Total outer iterations over converged solves.
    pub iterations: u64,
    /// Diagonal-shift retries seen (any outcome).
    pub pivot_shifts: u64,
    /// Fallback-ladder rungs descended (any outcome).
    pub fallbacks: u64,
}

impl TuneRecord {
    /// Mean solve time (µs) over converged solves; `f64::INFINITY` with no
    /// converged sample, so unproven rungs never win exploitation.
    pub fn mean_solve_us(&self) -> f64 {
        if self.converged == 0 {
            f64::INFINITY
        } else {
            self.solve_us as f64 / self.converged as f64
        }
    }

    /// Mean outer iterations over converged solves (`INFINITY` when none).
    pub fn mean_iterations(&self) -> f64 {
        if self.converged == 0 {
            f64::INFINITY
        } else {
            self.iterations as f64 / self.converged as f64
        }
    }
}

/// One solve outcome, as fed to [`AutoTuner::record`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TuneSample {
    /// Whether the solve converged.
    pub converged: bool,
    /// Solve wall time (µs); only folded in when converged.
    pub solve_us: u64,
    /// Outer iterations; only folded in when converged.
    pub iterations: u64,
    /// Diagonal-shift retries seen.
    pub pivot_shifts: u64,
    /// Fallback-ladder rungs descended.
    pub fallbacks: u64,
}

/// Why the tuner picked the rung it picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuneDecision {
    /// Gathering data: the rung had the fewest samples for this matrix.
    Explore,
    /// Best known rung by mean converged solve time.
    Exploit,
}

/// Counter snapshot for the stats protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TunerStats {
    /// Outcome records folded in.
    pub records: u64,
    /// Auto selections answered by exploration.
    pub explore: u64,
    /// Auto selections answered by exploitation.
    pub exploit: u64,
    /// Distinct fingerprints with at least one record.
    pub fingerprints: usize,
}

/// Plausibility ceiling on a state-file record's *total* converged solve
/// time: 10^13 µs ≈ 115 days. Anything above is a corrupt or hostile line
/// — folding it in would make the rung's mean time garbage forever.
pub const MAX_STATE_SOLVE_US: u64 = 10_000_000_000_000;

/// Warnings kept per [`AutoTuner::load`]; the rejected count is exact even
/// when a hostile file would otherwise produce megabytes of them.
const MAX_LOAD_WARNINGS: usize = 16;

/// What one [`AutoTuner::load`] did: lines folded in, lines refused, and
/// the first few per-line reasons (capped at 16).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TuneLoad {
    /// Lines folded into the store.
    pub absorbed: usize,
    /// Lines refused by validation.
    pub rejected: usize,
    /// `"line <k>: <why>"` for the first rejected lines.
    pub warnings: Vec<String>,
}

#[derive(Default)]
struct Inner {
    by_fp: HashMap<u64, HashMap<PrecondKind, TuneRecord>>,
    records: u64,
    explore: u64,
    exploit: u64,
}

/// The per-fingerprint outcome store and `"auto"` selection policy.
///
/// Thread-safe; one lives inside every
/// [`SolveService`](crate::SolveService).
pub struct AutoTuner {
    inner: Mutex<Inner>,
    /// Converged samples each candidate needs before exploitation starts
    /// for a fingerprint.
    pub explore_trials: u64,
}

impl Default for AutoTuner {
    fn default() -> Self {
        AutoTuner::new(1)
    }
}

impl AutoTuner {
    /// An empty tuner requiring `explore_trials` converged samples per
    /// candidate rung before it exploits (min 1).
    pub fn new(explore_trials: u64) -> AutoTuner {
        AutoTuner {
            inner: Mutex::new(Inner::default()),
            explore_trials: explore_trials.max(1),
        }
    }

    /// Folds one solve outcome into the store.
    pub fn record(&self, fingerprint: u64, precond: PrecondKind, sample: TuneSample) {
        let mut inner = self.inner.lock().expect("tuner lock");
        let rec = inner
            .by_fp
            .entry(fingerprint)
            .or_default()
            .entry(precond)
            .or_default();
        rec.n += 1;
        if sample.converged {
            rec.converged += 1;
            rec.solve_us += sample.solve_us;
            rec.iterations += sample.iterations;
        }
        rec.pivot_shifts += sample.pivot_shifts;
        rec.fallbacks += sample.fallbacks;
        inner.records += 1;
        parapre_metrics::inc(parapre_metrics::names::TUNER_RECORDS_TOTAL, 1);
    }

    /// Picks the preconditioner for an `"auto"` job on `fingerprint`.
    pub fn select(&self, fingerprint: u64) -> (PrecondKind, TuneDecision) {
        let mut inner = self.inner.lock().expect("tuner lock");
        let recs = inner.by_fp.get(&fingerprint).cloned().unwrap_or_default();
        // Conditional arms first: a `SchurML` record carrying fallbacks
        // means the strict build refused this matrix and the ladder paid a
        // rung — retrying the arm would keep failing the same way, so it
        // falls out of the sweep for this fingerprint.
        let armed = |k: PrecondKind| {
            !matches!(k, PrecondKind::SchurML { .. })
                || recs.get(&k).is_none_or(|r| r.fallbacks == 0)
        };
        // Explore: any candidate below the trial floor? Take the least
        // tried (first in AUTO_CANDIDATES order on ties, so cold matrices
        // start on the cheapest build).
        let undertried = AUTO_CANDIDATES
            .iter()
            .filter(|&&k| armed(k))
            .map(|&k| (k, recs.get(&k).map_or(0, |r| r.n)))
            .filter(|&(_, n)| n < self.explore_trials)
            .min_by_key(|&(_, n)| n);
        let picked = if let Some((k, _)) = undertried {
            inner.explore += 1;
            parapre_metrics::inc(parapre_metrics::names::TUNER_EXPLORE_TOTAL, 1);
            (k, TuneDecision::Explore)
        } else {
            let best = AUTO_CANDIDATES
                .iter()
                .filter(|&&k| armed(k))
                .map(|&k| {
                    let r = recs.get(&k).copied().unwrap_or_default();
                    (k, r.mean_solve_us(), r.mean_iterations())
                })
                .min_by(|a, b| {
                    a.1.partial_cmp(&b.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal))
                })
                .map(|(k, _, _)| k)
                // No candidate ever converged: fall through to the paper's
                // workhorse and let the fallback ladder keep it honest.
                .unwrap_or(PrecondKind::Schur1);
            inner.exploit += 1;
            parapre_metrics::inc(parapre_metrics::names::TUNER_EXPLOIT_TOTAL, 1);
            (best, TuneDecision::Exploit)
        };
        picked
    }

    /// The record of one (fingerprint, rung) pair, if any.
    pub fn get(&self, fingerprint: u64, precond: PrecondKind) -> Option<TuneRecord> {
        self.inner
            .lock()
            .expect("tuner lock")
            .by_fp
            .get(&fingerprint)
            .and_then(|m| m.get(&precond))
            .copied()
    }

    /// Live counter snapshot.
    pub fn stats(&self) -> TunerStats {
        let inner = self.inner.lock().expect("tuner lock");
        TunerStats {
            records: inner.records,
            explore: inner.explore,
            exploit: inner.exploit,
            fingerprints: inner.by_fp.len(),
        }
    }

    /// Serializes every record as flat JSONL (one line per
    /// (fingerprint, rung); stable fingerprint-then-rung order).
    pub fn to_jsonl(&self) -> String {
        let inner = self.inner.lock().expect("tuner lock");
        let mut fps: Vec<_> = inner.by_fp.iter().collect();
        fps.sort_by_key(|(fp, _)| **fp);
        let mut out = String::new();
        for (fp, recs) in fps {
            let mut rungs: Vec<_> = recs.iter().collect();
            rungs.sort_by_key(|(k, _)| k.key());
            for (kind, r) in rungs {
                out.push_str(&format!(
                    "{{\"fp\":\"{fp:016x}\",\"precond\":\"{}\",\"n\":{},\"converged\":{},\
                     \"solve_us\":{},\"iterations\":{},\"pivot_shifts\":{},\"fallbacks\":{}}}\n",
                    kind.key(),
                    r.n,
                    r.converged,
                    r.solve_us,
                    r.iterations,
                    r.pivot_shifts,
                    r.fallbacks,
                ));
            }
        }
        out
    }

    /// Folds one serialized record line back in (inverse of
    /// [`AutoTuner::to_jsonl`] per line).
    ///
    /// A state file is attacker-adjacent input (it survives restarts and
    /// is trivially hand-editable), so a line only lands if it is fully
    /// well-formed: every numeric field a non-negative integer (`NaN`,
    /// negatives, and fractions are rejected, not truncated),
    /// `converged <= n`, `solve_us` under [`MAX_STATE_SOLVE_US`], and the
    /// rung one of the known names. A rejected line returns the reason and
    /// changes nothing — one poisoned record must never skew `select()`.
    pub fn absorb_jsonl_line(&self, line: &str) -> Result<(), String> {
        let fields =
            flatjson::parse_flat_object(line).map_err(|e| format!("not a flat object: {e}"))?;
        let fp = fields
            .get("fp")
            .and_then(JsonValue::as_str)
            .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
            .ok_or("missing or non-hex \"fp\"")?;
        let kind_str = fields
            .get("precond")
            .and_then(JsonValue::as_str)
            .ok_or("missing \"precond\"")?;
        let kind =
            PrecondKind::parse(kind_str).ok_or_else(|| format!("unknown precond {kind_str:?}"))?;
        // Strict counter read: absent is 0, present must be an exact
        // non-negative integer (as_u64 alone would truncate 1.5 to 1 and
        // wave NaN through as absent).
        let get_counter = |k: &str| -> Result<u64, String> {
            match fields.get(k) {
                None => Ok(0),
                Some(v) => {
                    let f = v
                        .as_f64()
                        .ok_or_else(|| format!("\"{k}\" is not a number"))?;
                    if !f.is_finite() || f < 0.0 || f.fract() != 0.0 || f > u64::MAX as f64 {
                        return Err(format!("\"{k}\" is not a non-negative integer ({f})"));
                    }
                    Ok(f as u64)
                }
            }
        };
        let n = get_counter("n")?;
        let converged = get_counter("converged")?;
        let solve_us = get_counter("solve_us")?;
        let iterations = get_counter("iterations")?;
        let pivot_shifts = get_counter("pivot_shifts")?;
        let fallbacks = get_counter("fallbacks")?;
        if converged > n {
            return Err(format!("converged ({converged}) exceeds n ({n})"));
        }
        if solve_us > MAX_STATE_SOLVE_US {
            return Err(format!(
                "solve_us ({solve_us}) exceeds the plausibility cap ({MAX_STATE_SOLVE_US})"
            ));
        }
        let mut inner = self.inner.lock().expect("tuner lock");
        let rec = inner.by_fp.entry(fp).or_default().entry(kind).or_default();
        rec.n += n;
        rec.converged += converged;
        rec.solve_us += solve_us;
        rec.iterations += iterations;
        rec.pivot_shifts += pivot_shifts;
        rec.fallbacks += fallbacks;
        inner.records += 1;
        Ok(())
    }

    /// Writes the store to `path` (atomic enough for a single writer:
    /// temp file + rename).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            f.write_all(self.to_jsonl().as_bytes())?;
            f.flush()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Loads (merges) a state file previously written by
    /// [`AutoTuner::save`]. A missing file is fine (cold start); malformed
    /// or implausible lines are rejected individually with structured
    /// warnings rather than poisoning the store or aborting the load.
    pub fn load(&self, path: &Path) -> std::io::Result<TuneLoad> {
        let f = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(TuneLoad::default()),
            Err(e) => return Err(e),
        };
        let mut out = TuneLoad::default();
        for (i, line) in std::io::BufReader::new(f).lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            match self.absorb_jsonl_line(&line) {
                Ok(()) => out.absorbed += 1,
                Err(why) => {
                    out.rejected += 1;
                    if out.warnings.len() < MAX_LOAD_WARNINGS {
                        out.warnings.push(format!("line {}: {why}", i + 1));
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explores_then_exploits_best_mean() {
        let t = AutoTuner::new(1);
        let fp = 0xabcdu64;
        // Cold: sweeps the candidate list in order.
        for &want in AUTO_CANDIDATES.iter() {
            let (k, d) = t.select(fp);
            assert_eq!((k, d), (want, TuneDecision::Explore));
            let us = if want == PrecondKind::Schur2 {
                100
            } else {
                900
            };
            t.record(
                fp,
                want,
                TuneSample {
                    converged: true,
                    solve_us: us,
                    iterations: 10,
                    ..TuneSample::default()
                },
            );
        }
        // Warm: picks the fastest mean.
        let (k, d) = t.select(fp);
        assert_eq!((k, d), (PrecondKind::Schur2, TuneDecision::Exploit));
    }

    #[test]
    fn unconverged_rungs_never_win() {
        let t = AutoTuner::new(1);
        let fp = 7u64;
        for &k in AUTO_CANDIDATES.iter() {
            // Block1 is fast but diverges; Schur1 converges slowly.
            let conv = k == PrecondKind::Schur1;
            t.record(
                fp,
                k,
                TuneSample {
                    converged: conv,
                    solve_us: 50,
                    iterations: 5,
                    ..TuneSample::default()
                },
            );
        }
        assert_eq!(t.select(fp).0, PrecondKind::Schur1);
    }

    #[test]
    fn schurml_arm_falls_out_after_build_fallback() {
        let t = AutoTuner::new(1);
        let fp = 0x5c4au64;
        let schurml = PrecondKind::schurml_default();
        // The SchurML build was refused: the ladder descended a rung. The
        // converged result belongs to the substitute, not the arm.
        t.record(
            fp,
            schurml,
            TuneSample {
                converged: true,
                solve_us: 1, // would win exploitation if the arm stayed live
                iterations: 1,
                fallbacks: 1,
                ..TuneSample::default()
            },
        );
        // Exploration sweeps the remaining arms only…
        for _ in 0..AUTO_CANDIDATES.len() - 1 {
            let (k, d) = t.select(fp);
            assert_eq!(d, TuneDecision::Explore);
            assert_ne!(k, schurml, "disarmed rung must not be explored");
            t.record(
                fp,
                k,
                TuneSample {
                    converged: true,
                    solve_us: 500,
                    iterations: 10,
                    ..TuneSample::default()
                },
            );
        }
        // …and exploitation never resurrects the disarmed rung either.
        let (k, d) = t.select(fp);
        assert_eq!(d, TuneDecision::Exploit);
        assert_ne!(k, schurml, "disarmed rung must not win exploitation");
    }

    #[test]
    fn schurml_arm_stays_live_on_clean_builds() {
        let t = AutoTuner::new(1);
        let fp = 0x11u64;
        let schurml = PrecondKind::schurml_default();
        for &k in AUTO_CANDIDATES.iter() {
            let us = if k == schurml { 10 } else { 800 };
            t.record(
                fp,
                k,
                TuneSample {
                    converged: true,
                    solve_us: us,
                    iterations: 5,
                    ..TuneSample::default()
                },
            );
        }
        assert_eq!(t.select(fp), (schurml, TuneDecision::Exploit));
    }

    #[test]
    fn jsonl_round_trip_preserves_records() {
        let t = AutoTuner::new(2);
        t.record(
            1,
            PrecondKind::Schur1,
            TuneSample {
                converged: true,
                solve_us: 123,
                iterations: 7,
                pivot_shifts: 1,
                fallbacks: 0,
            },
        );
        t.record(
            1,
            PrecondKind::Block2,
            TuneSample {
                pivot_shifts: 2,
                fallbacks: 3,
                ..TuneSample::default()
            },
        );
        t.record(
            2,
            PrecondKind::Jacobi,
            TuneSample {
                converged: true,
                solve_us: 9,
                iterations: 1,
                ..TuneSample::default()
            },
        );
        let text = t.to_jsonl();
        let u = AutoTuner::new(2);
        for line in text.lines() {
            u.absorb_jsonl_line(line).expect("own output round-trips");
        }
        for (fp, k) in [
            (1, PrecondKind::Schur1),
            (1, PrecondKind::Block2),
            (2, PrecondKind::Jacobi),
        ] {
            assert_eq!(t.get(fp, k), u.get(fp, k), "fp={fp} {k:?}");
        }
        // Malformed lines are rejected without changing the store.
        assert!(u.absorb_jsonl_line("not json").is_err());
        assert!(u
            .absorb_jsonl_line("{\"fp\":\"zz\",\"precond\":\"schur1\"}")
            .is_err());
        assert_eq!(u.stats().fingerprints, 2);
    }

    #[test]
    fn hostile_state_lines_are_rejected_and_do_not_poison_select() {
        let t = AutoTuner::new(1);
        // Each line is hostile in a different way; none may land.
        let hostile = [
            // Unknown rung name.
            "{\"fp\":\"1\",\"precond\":\"turbo9000\",\"n\":1,\"converged\":1,\"solve_us\":1}",
            // Negative counter.
            "{\"fp\":\"1\",\"precond\":\"schur1\",\"n\":-5}",
            // Fractional counter (as_u64 would silently truncate it).
            "{\"fp\":\"1\",\"precond\":\"schur1\",\"n\":2,\"converged\":1.5}",
            // NaN-via-null counter.
            "{\"fp\":\"1\",\"precond\":\"schur1\",\"n\":1,\"solve_us\":null}",
            // More conversions than solves.
            "{\"fp\":\"1\",\"precond\":\"schur1\",\"n\":1,\"converged\":2}",
            // Absurd total solve time (would rig the mean forever).
            "{\"fp\":\"1\",\"precond\":\"schur1\",\"n\":1,\"converged\":1,\
             \"solve_us\":99000000000000}",
            // String where a counter belongs.
            "{\"fp\":\"1\",\"precond\":\"schur1\",\"n\":\"lots\"}",
        ];
        for line in hostile {
            assert!(t.absorb_jsonl_line(line).is_err(), "must reject: {line}");
        }
        assert_eq!(t.stats().records, 0, "no hostile line may land");
        // One honest record, then a hostile file load: selection still
        // reflects only the honest data.
        t.record(
            1,
            PrecondKind::Schur2,
            TuneSample {
                converged: true,
                solve_us: 10,
                iterations: 2,
                ..TuneSample::default()
            },
        );
        let dir = std::env::temp_dir().join("parapre-tuner-hostile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.jsonl");
        std::fs::write(&path, hostile.join("\n")).unwrap();
        let loaded = t.load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.absorbed, 0);
        assert_eq!(loaded.rejected, hostile.len());
        assert_eq!(loaded.warnings.len(), hostile.len());
        assert!(loaded.warnings[0].starts_with("line 1:"));
        assert_eq!(t.get(1, PrecondKind::Schur2).unwrap().solve_us, 10);
    }

    #[test]
    fn save_load_round_trip_reports_counts() {
        let t = AutoTuner::new(1);
        t.record(
            42,
            PrecondKind::Block1,
            TuneSample {
                converged: true,
                solve_us: 77,
                iterations: 3,
                ..TuneSample::default()
            },
        );
        let dir = std::env::temp_dir().join("parapre-tuner-roundtrip-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.jsonl");
        t.save(&path).unwrap();
        let u = AutoTuner::new(1);
        let loaded = u.load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.absorbed, 1);
        assert_eq!(loaded.rejected, 0);
        assert!(loaded.warnings.is_empty());
        assert_eq!(
            u.get(42, PrecondKind::Block1),
            t.get(42, PrecondKind::Block1)
        );
        // Missing file: clean cold start.
        let cold = u.load(&dir.join("nope.jsonl")).unwrap();
        assert_eq!(cold, TuneLoad::default());
    }
}
