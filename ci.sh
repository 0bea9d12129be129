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

# The EPA crate has one sweep scheduler: the worker pool in parallel.rs is
# the only place it spawns scoped threads.
scopes=$(grep -rn 'thread::scope' crates/epa/src || true)
if [ "$(grep -c . <<<"$scopes")" -ne 1 ] || ! grep -q '^crates/epa/src/parallel.rs:' <<<"$scopes"; then
    echo "ci.sh: thread::scope must appear exactly once in crates/epa/src, in parallel.rs:" >&2
    echo "$scopes" >&2
    exit 1
fi

cargo build --release
cargo test -q
# The independent certificate checker's unit + mutation suite must pass
# on its own (proof replay, model audits, corrupted-proof rejection).
cargo test -q -p cpsrisk-asp check
# Catalog-scale equality of the static outcome path (every scenario of the
# first sweep benchmark plant, region-restricted conditional WFM against
# the from-scratch oracle) and the certified refutation of the `solve`
# benchmark's adversarial file (n=33), checked by the independent checker.
# Too slow for a debug build, so they are ignored there and run here in
# release.
cargo test --release -q -p cpsrisk-epa -- --ignored
# Release depth of the CDCL differential suite: 20,000 card-heavy programs
# against the oracle, deep enough to reach a conflict explained through a
# cardinality element's guard.
cargo test --release -q -p cpsrisk-asp -- --ignored
cargo clippy --all-targets -- -D warnings
cargo fmt --check
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

# The benchmark of record (perfbench/, its own package) calls the public
# API directly: it must keep building against the tree, and its own tests
# must pass, so removing an API it uses fails here.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --offline --manifest-path perfbench/Cargo.toml
# One-second traced runs execute the benchmark's correctness gates. On
# sweep: ASP answers against the direct engine, one-thread sweep equality,
# probe grounding against the resident programs, and static verdicts
# against the sweep. On assess: a step-by-step replay of Assessment::run
# (mitigation selection included) against the pipeline's own report, and
# the ASP outcomes against the direct engine. On solve: no lint errors in
# the generated files, one model of the temporal file, an UNSAT adversarial
# file, and the horizon probe. The result is the last line of standard
# output.
for workload in sweep assess solve; do
    result=$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seconds 1 --trace 1 | tail -n 1)
    if ! grep -q '"correct": true' <<<"$result" || ! grep -Eq '"failed": 0[,}]' <<<"$result"; then
        echo "ci.sh: perfbench $workload smoke run failed its correctness gate: ${result:0:200}" >&2
        exit 1
    fi
done

# Static-analysis gate: the example programs must analyze without
# error-severity findings, and on the temporal workload the grounding-size
# prediction must stay within 10x of the actual grounding.
./target/release/cpsrisk analyze examples/listing1.lp examples/water_tank.lp
./target/release/cpsrisk analyze --workload temporal --max-divergence 10

# Every example of crates/core runs end to end (asp_repl is interactive and
# is skipped). attack_surface is the public ExhaustiveAnalysis caller
# outside the CLI.
for example in $(awk '/^\[\[example\]\]/ { getline; gsub(/"/, "", $3); print $3 }' crates/core/Cargo.toml); do
    [ "$example" = asp_repl ] && continue
    cargo run --release -q -p cpsrisk --example "$example" </dev/null >/dev/null
done
