#!/usr/bin/env bash
# The one command of the parapre benchmark. Run from anywhere; see
# benchmark/README.md, or `benchmark/run.sh --help` for the modes.
#
# Builds the product's netd (default features) and the two benchmark
# packages, then hands over to the e2e binary. If the traced `layers`
# package does not build, the end-to-end metrics are still produced and the
# per-layer rows are reported as unavailable.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
if [ ! -f Cargo.toml ] || [ ! -d crates/net ]; then
    echo "benchmark/run.sh: $root is not a parapre checkout (no Cargo.toml, no crates/net)" >&2
    exit 3
fi

# One target directory for the three builds, so crates shared by netd and the
# benchmark packages compile once. A relative CARGO_TARGET_DIR is relative to
# the root of the checkout.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# The product chooses its own thread budget.
unset PARAPRE_THREADS

cargo build --release --offline --quiet -p parapre-net --bin parapre-netd
cargo build --release --offline --quiet --manifest-path benchmark/e2e/Cargo.toml
export PARAPRE_BENCH_NETD="$target/release/parapre-netd"
export PARAPRE_BENCH_LAYERS=""
if cargo build --release --offline --quiet --manifest-path benchmark/layers/Cargo.toml; then
    PARAPRE_BENCH_LAYERS="$target/release/parapre-bench-layers"
else
    echo "benchmark/run.sh: the layers package did not build; per-layer metrics are unavailable" >&2
fi

if [ "${1:-}" = "test" ]; then
    cargo test --release --offline --quiet --manifest-path benchmark/e2e/Cargo.toml
    cargo test --release --offline --quiet --manifest-path benchmark/layers/Cargo.toml
    exit 0
fi

exec "$target/release/parapre-bench-e2e" "$@"
