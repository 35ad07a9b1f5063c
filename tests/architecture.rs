//! Structural invariants of the workspace, read off the source tree.
//!
//! Each test is one promise an earlier simplification made and a grep can
//! keep: one build configuration and no `unsafe`; one Krylov layer; one
//! Krylov configuration; one clock; one Arnoldi loop; one
//! recovery layer on the one pipeline; one experiment pipeline; one front
//! door, whose every job key and command verb is documented and whose job
//! values are read in one place; one Schur driver; one tag table; one
//! fixture family; a preconditioner layer that reads no global matrix. The tree is walked with `std::fs` from the root
//! package's directory, build output (`target`) is skipped, and so is this
//! file, whose needles would otherwise match themselves. A failure lists
//! every offending `path:line`.

use std::fs;
use std::path::Path;

const THIS_FILE: &str = "tests/architecture.rs";

/// Every UTF-8 file under the root-relative `dirs`, as `(path, text)` with
/// `/`-separated root-relative paths.
fn files(dirs: &[&str]) -> Vec<(String, String)> {
    fn walk(root: &Path, rel: &str, out: &mut Vec<(String, String)>) {
        let path = root.join(rel);
        if path.is_file() {
            if rel != THIS_FILE {
                if let Ok(text) = fs::read_to_string(&path) {
                    out.push((rel.to_string(), text));
                }
            }
            return;
        }
        let Ok(entries) = fs::read_dir(&path) else {
            return;
        };
        let mut names: Vec<String> = entries
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|name| name != "target")
            .collect();
        names.sort();
        for name in names {
            walk(root, &format!("{rel}/{name}"), out);
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for dir in dirs {
        walk(root, dir, &mut out);
    }
    out
}

/// `sub` of every crate under `crates/` (`crates/<name>/<sub>`).
fn in_each_crate(sub: &str) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|c| format!("crates/{c}/{sub}"))
        .collect()
}

/// `path:line: text` of every line of `files` on which `hit` holds.
fn lines_where(files: &[(String, String)], hit: impl Fn(&str) -> bool) -> Vec<String> {
    let mut found = Vec::new();
    for (path, text) in files {
        for (k, line) in text.lines().enumerate() {
            if hit(line) {
                found.push(format!("{path}:{}: {}", k + 1, line.trim()));
            }
        }
    }
    found
}

/// Whether `line` contains `word` not followed by an identifier character.
fn has_word(line: &str, word: &str) -> bool {
    line.match_indices(word).any(|(at, _)| {
        !line[at + word.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
    })
}

fn assert_none(what: &str, found: Vec<String>) {
    assert!(found.is_empty(), "{what}:\n{}", found.join("\n"));
}

fn assert_once(what: &str, found: Vec<String>) {
    assert!(
        found.len() == 1,
        "{what}, found {}:\n{}",
        found.len(),
        found.join("\n")
    );
}

#[test]
fn one_build_configuration_and_no_unsafe() {
    let mut manifests = vec!["Cargo.toml".to_string()];
    manifests.extend(in_each_crate("Cargo.toml"));
    let manifests: Vec<&str> = manifests.iter().map(String::as_str).collect();
    assert_none(
        "no cargo feature anywhere",
        lines_where(&files(&manifests), |l| l.starts_with("[features]")),
    );

    let mut sources = in_each_crate("src");
    sources.push("src".to_string());
    let sources: Vec<&str> = sources.iter().map(String::as_str).collect();
    let rust: Vec<_> = files(&sources)
        .into_iter()
        .filter(|(path, _)| path.ends_with(".rs"))
        .collect();
    assert_none(
        "`unsafe` appears only in forbid attributes",
        lines_where(&rust, |l| {
            l.contains("unsafe") && !l.contains("forbid(unsafe_code)")
        }),
    );
}

#[test]
fn one_krylov_layer() {
    assert_once(
        "one `givens_rotation`",
        lines_where(&files(&["crates"]), |l| l.contains("fn givens_rotation")),
    );
    let tree = files(&["crates", "src", "tests", "examples"]);
    assert_none(
        "no distributed CG, second payload type or caller-less module",
        lines_where(&tree, |l| {
            l.contains("DistCg")
                || l.contains("Payload::Usizes")
                || ["csc", "poisson3d", "ordering", "scaling"]
                    .iter()
                    .any(|m| has_word(l, &format!("mod {m}")))
        }),
    );
}

#[test]
fn one_krylov_config() {
    let code: Vec<(String, String)> = files(&["crates", "src", "tests", "examples"])
        .into_iter()
        .filter(|(path, _)| path.ends_with(".rs"))
        .collect();
    assert_none(
        "one GMRES configuration and no CG: no code line names the folded config or CG",
        lines_where(&code, |l| {
            !l.trim_start().starts_with("//")
                && [
                    "DistGmresConfig",
                    "CgConfig",
                    "ConjugateGradient",
                    "IndefiniteOperator",
                ]
                .iter()
                .any(|n| l.contains(n))
        }),
    );
}

#[test]
fn one_clock() {
    let code: Vec<(String, String)> = files(&["crates", "src", "tests", "examples"])
        .into_iter()
        .filter(|(path, _)| path.ends_with(".rs"))
        .collect();
    assert_none(
        "a span's close is the only timer: no code line names the deleted timing verbs",
        lines_where(&code, |l| {
            !l.trim_start().starts_with("//")
                && ["observe_us", "observe_duration"]
                    .iter()
                    .any(|n| l.contains(n))
        }),
    );
    let engine = files(&["crates/engine/src"]);
    assert_none(
        "the engine times no interval by hand",
        lines_where(&engine, |l| l.contains(".elapsed()")),
    );
    let now = lines_where(&engine, |l| l.contains("Instant::now()"));
    assert!(
        now.len() == 3
            && now
                .iter()
                .all(|l| l.contains("queue.push_back(") || l.contains(" dl")),
        "the engine reads the clock only to stamp a submission and to compare \
         against its deadline:\n{}",
        now.join("\n")
    );
}

#[test]
fn one_arnoldi_loop() {
    // The product code under `crates/*/src`: each file up to its unit tests.
    let product: Vec<(String, String)> = files(&["crates"])
        .into_iter()
        .filter(|(path, _)| path.contains("/src/"))
        .map(|(path, text)| {
            let code = text.split("#[cfg(test)]").next().unwrap_or_default();
            (path, code.to_string())
        })
        .collect();
    assert_once(
        "one Arnoldi driver allocates the Givens recurrence",
        lines_where(&product, |l| l.contains("GivensLsq::new(")),
    );
    assert_none(
        "the sequential Arnoldi loop and its estimate window stay gone",
        lines_where(&files(&["crates"]), |l| {
            l.contains("run_gmres_core") || has_word(l, "fn stalled")
        }),
    );
}

#[test]
fn one_recovery_layer_on_the_one_pipeline() {
    let tree = files(&[
        "Cargo.toml",
        "crates",
        "src",
        "tests",
        "examples",
        ".github",
    ]);
    assert_none(
        "the folded resilience crate stays gone",
        lines_where(&tree, |l| {
            l.contains("parapre_resilience") || l.contains("parapre-resilience")
        }),
    );
    assert_none(
        "process-level recovery stays gone: no retry, checkpoint, degraded solve or \
         kill/hang/drop injection, and no second launcher",
        lines_where(&files(&["crates"]), |l| {
            [
                "trait CheckpointSink",
                "try_run_with_timeout",
                "DegradedReport",
                "CheckpointStore",
                "solve_resilient",
                "solve_degraded",
                "RecoveryPolicy",
                "InjectedFault",
                "StepFault",
                "SendFault::Drop",
                "try_run_with_faults",
            ]
            .iter()
            .any(|n| l.contains(n))
        }),
    );
    assert_once(
        "the engine starts a universe in `launch` only",
        lines_where(&files(&["crates/engine/src"]), |l| l.contains("Universe::")),
    );
}

#[test]
fn one_experiment_pipeline() {
    assert_none(
        "`core::runner` starts no universe and has no config type of its own",
        lines_where(&files(&["crates/core/src/runner.rs"]), |l| {
            l.contains("struct RunConfig") || l.contains("Universe::")
        }),
    );
    let tree = files(&["crates", "src", "tests", "examples"]);
    let defines_run_case = |l: &str| {
        [
            "fn run_case(",
            "fn run_case<",
            "fn run_case_traced(",
            "fn run_case_traced<",
        ]
        .iter()
        .any(|n| l.contains(n))
    };
    assert_none(
        "a table cell is a session build and run, defined in `engine::experiment` only",
        lines_where(&tree, defines_run_case)
            .into_iter()
            .filter(|hit| !hit.starts_with("crates/engine/src/experiment.rs:"))
            .collect(),
    );
}

#[test]
fn one_front_door() {
    assert_none(
        "the engine has no binary and no finite-element dependency",
        lines_where(&files(&["crates/engine/Cargo.toml"]), |l| {
            l.starts_with("[[bin]]") || l.contains("parapre-fem")
        }),
    );
    let tree = files(&[
        "crates",
        "src",
        "tests",
        "examples",
        "benchmark/e2e/src",
        "benchmark/layers/src",
    ]);
    assert_none(
        "a job's fields are parsed in the engine and by netd's dispatch only",
        lines_where(&tree, |l| l.contains("parse_job_fields("))
            .into_iter()
            .filter(|hit| {
                !hit.starts_with("crates/engine/src/")
                    && !hit.starts_with("crates/net/src/server.rs:")
            })
            .collect(),
    );
}

#[test]
fn every_job_key_is_documented() {
    let module_doc: String = files(&["crates/engine/src/jobs.rs"])[0]
        .1
        .lines()
        .take_while(|l| l.starts_with("//!"))
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        module_doc.contains("[`JOB_KEYS`]"),
        "the jobs.rs module doc points to `JOB_KEYS`"
    );
    let readme = &files(&["README.md"])[0].1;
    let missing: Vec<String> = parapre::engine::JOB_KEYS
        .iter()
        .map(|spec| spec.markdown_row())
        .filter(|row| !readme.lines().any(|l| l == row))
        .collect();
    assert_none(
        "README.md has every `JOB_KEYS` row as `KeySpec::markdown_row` renders it",
        missing,
    );
    let table = readme
        .lines()
        .skip_while(|l| *l != "| key | value | sets |")
        .skip(2)
        .take_while(|l| l.starts_with('|'));
    let rows: Vec<String> = parapre::engine::JOB_KEYS
        .iter()
        .map(|spec| spec.markdown_row())
        .collect();
    let stale: Vec<String> = table
        .filter(|l| !rows.iter().any(|row| row == l))
        .map(str::to_string)
        .collect();
    assert_none(
        "every row of README.md's job-key table is a `JOB_KEYS` row",
        stale,
    );
    assert!(
        readme.lines().any(|l| l == "| key | value | sets |"),
        "README.md has the job-key table"
    );
}

#[test]
fn every_command_is_matched_once_and_documented() {
    let dispatch = files(&["crates/net/src/server.rs", "crates/engine/src/service.rs"]);
    let readme = &files(&["README.md"])[0].1;
    let mut wrong = Vec::new();
    for verb in parapre::engine::COMMANDS {
        let arm = format!("\"{verb}\" =>");
        let arms = lines_where(&dispatch, |l| l.trim_start().starts_with(&arm));
        if arms.len() != 1 {
            wrong.push(format!("{verb}: matched {} times {arms:?}", arms.len()));
        }
        if !readme.contains(&format!("`{{\"cmd\":\"{verb}\"}}`")) {
            wrong.push(format!("{verb}: not in README.md"));
        }
    }
    assert_none("every `COMMANDS` verb", wrong);
}

#[test]
fn job_values_are_read_in_the_walker_only() {
    let jobs = &files(&["crates/engine/src/jobs.rs"])[0].1;
    let lines: Vec<&str> = jobs.lines().collect();
    let start = lines
        .iter()
        .position(|l| l.contains("fn check<"))
        .expect("the walker's step `KeySpec::check`");
    let end = start
        + lines[start..]
            .iter()
            .position(|l| *l == "    }")
            .expect("its closing brace");
    let reads: Vec<String> = lines
        .iter()
        .enumerate()
        .filter(|(k, l)| {
            !(start..=end).contains(k)
                && ["as_u64", "as_f64", "as_str", "as_bool"]
                    .iter()
                    .any(|read| l.contains(read))
        })
        .map(|(k, l)| format!("crates/engine/src/jobs.rs:{}: {}", k + 1, l.trim()))
        .collect();
    assert_none("a JSON value is read outside `KeySpec::check`", reads);
}

#[test]
fn one_schur_driver() {
    assert_once(
        "one Schur operator serves every distributed preconditioner of `core`",
        lines_where(&files(&["crates/core/src"]), |l| {
            l.contains("impl DistOp for")
        }),
    );
    let tree = files(&[
        "crates",
        "src",
        "tests",
        "examples",
        "benchmark/e2e/src",
        "benchmark/layers/src",
        "README.md",
        "DESIGN.md",
    ]);
    assert_none(
        "`Schur 1` is a rung of the one Schur struct, not a type of its own",
        lines_where(&tree, |l| {
            l.contains("Schur1Precond") || l.contains("Schur1Config")
        }),
    );
}

#[test]
fn one_tag_table() {
    let tree = files(&[
        "crates",
        "src",
        "tests",
        "examples",
        "benchmark/e2e/src",
        "benchmark/layers/src",
    ]);
    assert_none(
        "a tag offset from `REDUCE` is a named constant of `parapre_dist::tags`",
        lines_where(&tree, |l| l.contains("REDUCE +") || l.contains("REDUCE+"))
            .into_iter()
            .filter(|hit| {
                let (path, line) = hit.split_once(": ").expect("path:line: text");
                !(path.starts_with("crates/dist/src/lib.rs:") && line.starts_with("pub const"))
            })
            .collect(),
    );
}

#[test]
fn one_fixture_family() {
    let code: Vec<(String, String)> = files(&[
        "tests",
        "crates/core/tests",
        "crates/engine/tests",
        "crates/bench",
    ])
    .into_iter()
    .filter(|(path, _)| path.ends_with(".rs"))
    .collect();
    assert_none(
        "the hostile chain, the block owner map and the refactor's new values \
         are `parapre_core::cases` functions, defined once",
        lines_where(&code, |l| {
            ["fn hostile(", "fn perturbed(", "fn block_owner("]
                .iter()
                .any(|f| l.contains(f))
        }),
    );
}

#[test]
fn preconditioners_read_no_global_matrix() {
    let layer = files(&["crates/core/src", "crates/dist/src"]);
    let named = lines_where(&layer, |l| {
        !l.trim_start().starts_with("//") && l.contains("a_global")
    });
    assert_once(
        "the preconditioner layer names the global matrix once: the unread \
         `_a_global` parameter of `build_dist_precond_with_fallback`",
        named.clone(),
    );
    assert!(
        named[0].starts_with("crates/core/src/runner.rs:")
            && named[0].ends_with("_a_global: &parapre_sparse::Csr,"),
        "the one line naming it is that parameter: {}",
        named[0]
    );
    let refactors = lines_where(&layer, |l| l.contains("fn refactor(&self"));
    assert!(!refactors.is_empty(), "`DistPrecond::refactor` is found");
    assert_none(
        "`DistPrecond::refactor` takes no `Csr`",
        refactors
            .into_iter()
            .filter(|l| l.contains("Csr"))
            .collect(),
    );
}
