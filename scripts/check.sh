#!/usr/bin/env bash
# Repo-wide gate: formatting, lints, and the full test suite.
#
# Usage: scripts/check.sh
# Everything runs offline (vendored proptest/criterion shims).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, -D warnings; call bans from crates/clippy.toml)"
cargo clippy --workspace --all-targets --all-features -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q (PV_BACKEND=packed)"
cargo build --release
PV_BACKEND=packed cargo test -q

echo "==> tier-1 under the scalar oracle backend (PV_BACKEND=scalar)"
# The whole suite must pass with every kernel forced through the scalar
# backend — slower (naive GEMMs), but proves no test secretly depends on
# the packed pipeline's implementation details.
PV_BACKEND=scalar cargo test -q

echo "==> tier-1 under the sparse serving backend (PV_BACKEND=sparse)"
# Dense tensors take the sparse backend's dense fallback, CSR-sidecar'd
# weights the CSR kernels — either way every result must stay bitwise
# equal to the scalar oracle, so the whole suite must pass unchanged.
PV_BACKEND=sparse cargo test -q

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> pv analyze --deny-warnings (workspace invariant linter + pragma audit)"
cargo run -q --release -p pruneval-cli -- analyze --deny-warnings

echo "==> pv analyze exits non-zero on a seeded violation (gate self-test)"
if cargo run -q --release -p pruneval-cli -- analyze \
    --root crates/analyze/tests/selftest >/dev/null 2>&1; then
    echo "ERROR: analyze did not fail on the violation fixture" >&2
    exit 1
fi

echo "==> analyze v2 self-test: every dataflow rule catches its seeded violation"
SELFTEST_JSON=$(cargo run -q --release -p pruneval-cli -- analyze \
    --root crates/analyze/tests/selftest --json --deny-warnings 2>/dev/null || true)
for rule in hotpath-panic hotpath-alloc lock-discipline unchecked-frame-arith pragma-unused; do
    if ! grep -q "\"rule\": \"$rule\"" <<<"$SELFTEST_JSON"; then
        echo "ERROR: seeded $rule violation was not detected" >&2
        exit 1
    fi
done

echo "==> clippy call bans self-test: every path in crates/clippy.toml fires on its seeded call"
# The seeded crate is its own workspace under crates/, so clippy reads
# crates/clippy.toml for it; it must fail and name every banned path.
if BANS_OUT=$(cargo clippy -q --manifest-path crates/analyze/tests/clippy_bans/Cargo.toml \
    --target-dir target/clippy-bans -- -D warnings 2>&1); then
    echo "ERROR: clippy accepted the seeded call-ban crate" >&2
    exit 1
fi
for path in $(grep -oE 'path = "[^"]+"' crates/clippy.toml | cut -d'"' -f2); do
    if ! grep -qF "\`$path\`" <<<"$BANS_OUT"; then
        echo "ERROR: clippy did not flag the seeded $path call" >&2
        exit 1
    fi
done

echo "==> bench-e2e compiles and its own tests pass (the benchmark imports pv-tensor and pv-serve)"
cargo test -q --manifest-path bench-e2e/Cargo.toml

echo "==> numeric sanitizer smoke test (pv-nn --features sanitize)"
cargo test -q -p pv-nn --features sanitize

echo "==> pv-obs suite + fake-clock determinism self-test"
cargo test -q -p pv-obs
cargo test -q -p pv-obs --test determinism

echo "==> analyze bench smoke gate (fails if parse/CFG throughput regresses >20% vs committed BENCH_analyze.json)"
PV_BENCH_SMOKE=1 cargo bench -q -p pv-bench --bench analyze

echo "==> static-analysis micro-bench (BENCH_analyze.json)"
cargo bench -q -p pv-bench --bench analyze

echo "==> observability micro-bench (BENCH_obs.json)"
cargo bench -q -p pv-bench --bench obs

echo "==> kernels bench smoke gate (fails if any GFLOP/s row regresses >20% vs committed BENCH_kernels.json)"
PV_BENCH_SMOKE=1 cargo bench -q -p pv-bench --bench kernels

echo "==> serve bench smoke gate (fails if any throughput row regresses >20% or a sockets_* p99 grows >20% vs committed BENCH_serve.json)"
PV_BENCH_SMOKE=1 cargo bench -q -p pv-bench --bench serve

echo "==> reactor torture suite (fragmentation, slow-loris, 1000 sockets, reload, drain)"
cargo test -q --test serve_reactor

echo "==> OPERATIONS.md metrics gate (every serve/* metric the code emits must be documented)"
for metric in $(grep -rhoE '"serve/[a-z0-9_]+"' crates/serve/src | tr -d '"' | sort -u); do
    if ! grep -q "\`$metric\`" OPERATIONS.md; then
        echo "ERROR: $metric is emitted by crates/serve but undocumented in OPERATIONS.md" >&2
        exit 1
    fi
done

echo "==> serving gate: pruneval serve + loadgen round-trip + graceful drain"
SERVE_ADDR=127.0.0.1:17419
target/release/pruneval serve --model mlp --scale smoke --addr "$SERVE_ADDR" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    if target/release/pruneval loadgen --model mlp --scale smoke \
        --addr "$SERVE_ADDR" --requests 1 \
        --concurrency 1 --json target/check_serve_probe.json >/dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
target/release/pruneval loadgen --model mlp --scale smoke \
    --addr "$SERVE_ADDR" --requests 32 \
    --concurrency 4 --json target/check_serve.json
grep -q '"failed": 0' target/check_serve.json || {
    echo "ERROR: serving gate saw failed requests" >&2
    exit 1
}
# Drain instead of kill: the control frame closes the listener, the server
# answers everything admitted, and the serve process must exit on its own.
target/release/pruneval drain --addr "$SERVE_ADDR"
DRAIN_OK=0
for _ in $(seq 1 100); do
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        DRAIN_OK=1
        break
    fi
    sleep 0.1
done
if [ "$DRAIN_OK" -ne 1 ]; then
    echo "ERROR: serve process did not exit within 10s of a drain" >&2
    exit 1
fi
wait "$SERVE_PID" || {
    echo "ERROR: drained serve process exited nonzero" >&2
    exit 1
}
trap - EXIT

echo "==> gated property tests (--all-features)"
cargo test -q --workspace --all-features

echo "==> checkpoint round-trip + cache determinism suites (--all-features)"
cargo test -q -p pv-ckpt --all-features
cargo test -q -p lost-in-pruning --all-features \
    --test checkpoint_roundtrip --test cache_determinism

echo "All checks passed."
