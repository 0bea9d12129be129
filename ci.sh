#!/usr/bin/env bash
# Full CI gate: build, test, lint, format. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

# Build artifacts must never be tracked (the tree once carried ~8.9k
# target/ files; this guard keeps the regression out for good).
if git ls-files | grep -q '^target/'; then
    echo "ci.sh: target/ files are tracked in git — run 'git rm -r --cached target'" >&2
    exit 1
fi

# Every crate must forbid unsafe code at the root.
for lib in crates/*/src/lib.rs; do
    grep -q '^#!\[forbid(unsafe_code)\]' "$lib" || {
        echo "ci.sh: $lib is missing #![forbid(unsafe_code)]" >&2
        exit 1
    }
done

cargo build --release
cargo test -q
# The independent certificate checker's unit + mutation suite must pass
# on its own (proof replay, model audits, corrupted-proof rejection).
cargo test -q -p cpsrisk-asp check
cargo clippy --all-targets -- -D warnings
cargo fmt --check
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

# The benchmark of record (perfbench/, its own package) calls the public
# API directly: it must keep building against the tree, and its own tests
# must pass, so removing an API it uses fails here.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --offline --manifest-path perfbench/Cargo.toml

# Static-analysis gate: the example programs must analyze without
# error-severity findings, and on the temporal workload the grounding-size
# prediction must stay within 10x of the actual grounding.
./target/release/cpsrisk analyze examples/listing1.lp examples/water_tank.lp
./target/release/cpsrisk analyze --workload temporal --max-divergence 10
