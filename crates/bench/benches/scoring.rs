//! Microbenchmarks of the batched hot path's scoring kernel: the
//! gather → rate → score sweep the engine runs over its flat candidate
//! pool on every sync (the substrate of the `batched-hotpath` baseline
//! rows and the `--perf-check` CI gate).

use adpf_overbooking::availability::{display_probability_bursty, BurstyTail};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

/// Day-level dispersion the pools are scored at.
const DISPERSION: f64 = 0.85;

/// A synthetic candidate pool shaped like the engine's score-phase
/// input: `(expected slots, queue depth, slots per session)` with a
/// small set of distinct rates (users cluster by activity level) and
/// varying per-candidate queue depths.
fn pool(n: usize) -> Vec<(f64, u32, f64)> {
    (0..n)
        .map(|i| {
            let expected = 2.0 + ((i * 7919) % 16) as f64 * 1.5;
            let queued = ((i * 31) % 5) as u32;
            (expected, queued, 3.5)
        })
        .collect()
}

fn bench_closed_form(c: &mut Criterion) {
    c.bench_function("score_closed_form", |b| {
        b.iter(|| {
            black_box(display_probability_bursty(
                black_box(8.0),
                black_box(2),
                black_box(3.5),
                black_box(DISPERSION),
            ))
        });
    });
}

fn bench_score_sweep(c: &mut Criterion) {
    // The pool build's score pass: one fresh tail state per candidate,
    // scored at its current queue depth (one `exp` each).
    let mut g = c.benchmark_group("score_sweep");
    for n in [32usize, 128, 512] {
        let cands = pool(n);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &cands, |b, cands| {
            let mut tails = Vec::with_capacity(cands.len());
            b.iter(|| {
                tails.clear();
                let mut acc = 0.0;
                for &(expected, queued, mean_session) in cands {
                    let mut tail = BurstyTail::new(expected, mean_session, DISPERSION);
                    acc += tail.prob(queued);
                    tails.push(tail);
                }
                black_box(acc)
            });
        });
    }
    g.finish();
}

fn bench_rescore(c: &mut Criterion) {
    // The re-score path: every candidate of a scored pool gains one
    // queued ad, so each tail extends its series by at most one term.
    let cands = pool(128);
    let mut g = c.benchmark_group("score_rescore");
    g.throughput(Throughput::Elements(cands.len() as u64));
    g.bench_function("128", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &(expected, queued, mean_session) in &cands {
                let mut tail = BurstyTail::new(expected, mean_session, DISPERSION);
                acc += tail.prob(queued);
                acc += tail.prob(queued + 1);
            }
            black_box(acc)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_closed_form, bench_score_sweep, bench_rescore);
criterion_main!(benches);
