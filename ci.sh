#!/usr/bin/env sh
# Local CI gate: build, test, and formatting check. Run from the repo root.
#
# `./ci.sh quick` runs only the perf gates: the fixed-seed smoke workload
# is replayed and its merged report hash compared to the committed golden
# below (any divergence means a change altered simulated outcomes —
# intentional behavior changes must update the golden alongside the code;
# silent drift from perf work is caught for free), then the thread-scaling
# check runs the quick workload at --threads 1 and 4 and fails below a
# 1.5x events/s ratio (generous, to avoid flaky CI). On single-CPU hosts
# the scaling check skips itself with exit 0: scaling is unobservable
# there, and determinism is still covered by the smoke hash.
#
# The observability gate (`--obs-check`) replays the smoke workload with
# metric collection on and off: the two reports must hash to the same
# golden (metrics are a pure spectator), the exported JSON lines must
# pass the schema validator, and collection overhead must stay under 3%.
#
# The throughput gate (`--perf-check`) replays the smoke workload
# single-threaded and fails if its best-of-N events/s falls more than 10%
# below the committed `batched-hotpath` smoke row in BENCH_baseline.json.
# It skips itself with exit 0 when the host's 1-minute load average shows
# outside contention — wall-clock throughput means nothing on a busy box.
#
# The memory gate (`--mem-check`) streams a mid-size workload through the
# bounded-memory pipeline and fails if peak RSS exceeds the ceiling
# committed in the baseline binary — catching any change that quietly
# re-materializes the full trace before sharding. Skips with exit 0 on
# hosts without a readable /proc.
#
# The scenario gate (`--scenario-check`) guards the scenario layer's two
# contracts: scenario-off runs must keep reproducing the committed smoke
# golden at 1/2/8 threads (the layer pays nothing when off), and a quick
# mixed-population run must hash identically across thread counts and
# through the streaming pipeline with its user-cost counters populated.
#
# The serving gate replays the smoke trace's event stream over stdin into
# the online `serve` binary, with two workers and with one: the final
# report hash must equal the same committed golden (the server is the
# batch engine behind a socket), and the decision-latency percentiles
# must have been recorded.
#
# The full run also greps library crates for stray stdout/stderr printing:
# all human-facing output belongs to the bench binaries, libraries speak
# through return values and the metric registry.
set -eux

SMOKE_GOLDEN="smoke-hash: ba08fcf9274d6de0"
SERVE_GOLDEN="report-hash: ba08fcf9274d6de0"

perf_smoke() {
    # The baseline binary runs with the marketplace off (the default), so
    # this golden doubles as the marketplace-off bit-identity gate: the
    # reactive-marketplace layer must be invisible until enabled.
    test "$(./target/release/baseline --smoke)" = "$SMOKE_GOLDEN"
}

marketplace_gates() {
    # The reactive-marketplace suites: adversarial exchange properties,
    # pacing convergence to the analytic optimum, and the library-level
    # assertion that a marketplace-off run reproduces $SMOKE_GOLDEN.
    cargo test -q --release -p adpf-auction \
        --test prop_marketplace --test convergence
    cargo test -q --release --test determinism marketplace_
}

perf_scaling() {
    ./target/release/baseline --scaling-check
}

perf_check() {
    ./target/release/baseline --perf-check
}

perf_mem() {
    ./target/release/baseline --mem-check
}

perf_obs() {
    # --obs-check prints the smoke hash as its first line, in --smoke
    # format, so metrics-on runs are held to the same golden. No pipe:
    # the binary's exit code must reach `set -e`.
    ./target/release/baseline --obs-check --metrics-out target/obs_smoke_metrics.jsonl \
        > target/obs_check.out
    cat target/obs_check.out
    test "$(head -n 1 target/obs_check.out)" = "$SMOKE_GOLDEN"
}

perf_scenario() {
    # --scenario-check prints the scenario-off smoke hash as its first
    # line, in --smoke format, so the off path is held to the golden.
    ./target/release/baseline --scenario-check > target/scenario_check.out
    cat target/scenario_check.out
    test "$(head -n 1 target/scenario_check.out)" = "$SMOKE_GOLDEN"
    grep -q '^scenario-check: mixed hash' target/scenario_check.out
}

perf_serve() {
    # Closed loop over stdin: generate the smoke event stream, serve it,
    # and hold the served report to the shared golden. The latency line
    # must carry a recorded p99 (every request lands in the histogram).
    ./target/release/tracegen --preset small --seed 777 --events \
        | ./target/release/serve --seed 5 --threads 2 > target/serve_smoke.out
    cat target/serve_smoke.out
    test "$(grep '^report-hash:' target/serve_smoke.out)" = "$SERVE_GOLDEN"
    grep -q '^serve: latency_us p50=[0-9]* p95=[0-9]* p99=[0-9]*$' target/serve_smoke.out
    grep -q '^serve: .*ingest_errors=0' target/serve_smoke.out
    # A single worker decides every shard, the path the `serve-open`
    # benchmark workload measures; it must print the same golden.
    ./target/release/tracegen --preset small --seed 777 --events \
        | ./target/release/serve --seed 5 --threads 1 > target/serve_smoke_1.out
    cat target/serve_smoke_1.out
    test "$(grep '^report-hash:' target/serve_smoke_1.out)" = "$SERVE_GOLDEN"
}

no_library_prints() {
    # Library crates must not print; the only print!/println!/eprintln!
    # call sites allowed are the bench and serve binaries
    # (crates/{bench,serve}/src/bin/).
    if grep -rnE '(^|[^a-zA-Z_])(e?println!|print!)\(' crates/*/src \
        --include='*.rs' \
        | grep -v '^crates/bench/src/bin/' \
        | grep -v '^crates/serve/src/bin/'; then
        echo "library crates must not print; route output through adpf-obs" >&2
        exit 1
    fi
}

if [ "${1:-}" = "quick" ]; then
    cargo build --release -p adpf-bench -p adpf-serve
    perf_smoke
    perf_obs
    perf_scaling
    perf_check
    perf_mem
    perf_scenario
    perf_serve
    marketplace_gates
    exit 0
fi

cargo build --release --workspace
cargo test -q --workspace --release
# The benchmark is a package of its own (own workspace): run its
# self-test, which checks metric names against BENCHMARK.json and that
# traced and untraced passes agree.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
no_library_prints
perf_smoke
perf_obs
perf_scaling
perf_check
perf_mem
perf_scenario
perf_serve
