//! Property tests pinning the incremental availability evaluator to the
//! closed-form reference implementations.
//!
//! The simulator's determinism contract demands *bit-identical* reports,
//! so these tests assert exact `f64` equality (`to_bits`), not tolerance:
//! [`BurstyTail`] must reproduce [`poisson_tail`] and
//! [`display_probability_bursty`] exactly whatever sequence of queue
//! depths it is asked at, never "close enough".

use adpf_overbooking::availability::{display_probability_bursty, poisson_tail, BurstyTail};
use proptest::prelude::*;

/// Asserts exact bitwise equality with a readable failure message.
macro_rules! assert_bits_eq {
    ($got:expr, $want:expr, $($ctx:tt)*) => {{
        let (got, want): (f64, f64) = ($got, $want);
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{}: got {got:e}, want {want:e}",
            format_args!($($ctx)*)
        );
    }};
}

/// Queue-depth sequences shaped three ways: arbitrary (rises, falls and
/// repeats at random), a mostly rising walk (the engine's re-scoring
/// pattern, with occasional repeats and drops), and one depth repeated.
fn depth_sequence() -> impl Strategy<Value = Vec<u32>> {
    (
        0u8..3,
        prop::collection::vec(0u32..64, 1..40),
        prop::collection::vec(0u8..8, 1..40),
    )
        .prop_map(|(shape, raw, steps)| match shape {
            0 => raw,
            1 => {
                let mut q = 0u32;
                steps
                    .iter()
                    .map(|&s| {
                        q = match s {
                            0 => q.saturating_sub(3), // Falls.
                            1 => q,                   // Repeats.
                            _ => q + (s as u32 - 1),  // Rises.
                        };
                        q
                    })
                    .collect()
            }
            _ => vec![raw[0]; steps.len()],
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// At unit session length and full dispersion the tail state is the
    /// plain Poisson tail `P(X >= queued + 1)`: queried at any depth
    /// sequence it matches the direct summation bit for bit.
    #[test]
    fn tail_matches_poisson_tail_in_any_query_order(
        // Mostly positive rates, with zero and negative (degenerate)
        // cases mixed in via the selector byte.
        lambda in (0u8..5, 0.0f64..50.0).prop_map(|(sel, raw)| match sel {
            0 => 0.0,
            1 => -raw / 10.0,
            _ => raw,
        }),
        depths in depth_sequence(),
    ) {
        let mut tail = BurstyTail::new(lambda, 1.0, 1.0);
        for q in depths {
            assert_bits_eq!(
                tail.prob(q),
                poisson_tail(q + 1, lambda),
                "prob(queued={q}), lambda={lambda}"
            );
        }
    }

    /// The tail state agrees exactly with the closed form across random
    /// workload-shaped inputs — zero and negative expected slots
    /// (`lambda <= 0`), zero and above-clamp dispersion, sub-1.0 session
    /// lengths — under depth sequences that rise, repeat and fall.
    #[test]
    fn tail_matches_bursty_closed_form(
        // In-range dispersions plus the 0, 1, and above-clamp edges.
        dispersion in (0u8..7, 0.0f64..1.0).prop_map(|(sel, raw)| match sel {
            0 => 0.0,
            1 => 1.0,
            2 => 1.0 + raw * 2.0, // Above the clamp range.
            _ => raw,
        }),
        expected in (0u8..6, 0.0f64..200.0).prop_map(|(sel, raw)| match sel {
            0 => 0.0,
            1 => -raw,
            _ => raw,
        }),
        // sel 0: sub-1.0 slots-per-session (the max(1.0) clamp).
        per_session in (0u8..4, 0.0f64..12.0).prop_map(|(sel, raw)| {
            if sel == 0 { raw / 12.0 } else { raw.max(1.0) }
        }),
        depths in depth_sequence(),
    ) {
        let mut tail = BurstyTail::new(expected, per_session, dispersion);
        for q in depths {
            assert_bits_eq!(
                tail.prob(q),
                display_probability_bursty(expected, q, per_session, dispersion),
                "prob(queued={q}), expected={expected}, per_session={per_session}, \
                 dispersion={dispersion}"
            );
        }
    }
}

/// Deterministic spot-check of the edges: a rising run extends the
/// series, a repeated depth answers from it unchanged, a fall restarts
/// it, and `lambda <= 0` is always zero.
#[test]
fn tail_survives_rises_repeats_and_falls() {
    let mut tail = BurstyTail::new(24.0, 5.0, 0.7);
    for q in [0u32, 1, 4, 5, 5, 9, 30, 30, 2, 0, 11, 3] {
        let want = display_probability_bursty(24.0, q, 5.0, 0.7);
        assert_eq!(tail.prob(q).to_bits(), want.to_bits(), "queued={q}");
    }
    for (expected, dispersion) in [(0.0, 0.7), (-3.0, 0.7), (24.0, 0.0)] {
        let mut tail = BurstyTail::new(expected, 5.0, dispersion);
        for q in [0u32, 6, 2] {
            assert_eq!(
                tail.prob(q),
                0.0,
                "expected={expected} dispersion={dispersion}"
            );
        }
    }
}
