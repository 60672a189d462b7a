//! Per-client display-probability models.
//!
//! Two evaluation paths compute the same math:
//!
//! - the closed-form functions ([`poisson_tail`],
//!   [`display_probability_bursty`]) restart the Poisson summation on
//!   every call — simple, and the reference the tests check against;
//! - the incremental path ([`BurstyTail`]) keeps one candidate's running
//!   pmf/cdf, so re-scoring it at a deeper queue extends the series
//!   instead of recomputing `exp(-lambda)` and the term products.
//!
//! The incremental path is **bit-identical** to the closed form: it
//! performs the same floating-point operations in the same order, merely
//! resuming where the last query stopped. That property is load-bearing
//! — the simulator's golden determinism suite compares full reports
//! across code paths.

/// A candidate client for holding a replica of a pre-sold ad.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClientAvailability {
    /// Client index (simulator-level id).
    pub client: u32,
    /// Probability the client shows this ad before its deadline.
    pub prob: f64,
}

/// Upper tail of the Poisson distribution: `P(X >= k)` for `X ~
/// Poisson(lambda)`.
///
/// Computed as `1 - sum_{j<k} pmf(j)` with an iteratively built pmf, which
/// is exact and stable for the small `k` (queue depths) used here.
pub fn poisson_tail(k: u32, lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if k == 0 {
        return 1.0;
    }
    let mut pmf = (-lambda).exp(); // P(X = 0).
    let mut cdf = pmf;
    for j in 1..k {
        pmf *= lambda / j as f64;
        cdf += pmf;
    }
    (1.0 - cdf).clamp(0.0, 1.0)
}

/// Probability a client displays *one more* pre-sold ad before the
/// deadline, given `expected_slots` predicted slots in that window and
/// `queued_ahead` ads already committed to the client.
///
/// Slot arrivals within the deadline window are modeled as Poisson with
/// mean `expected_slots`; the new ad is shown iff the client produces at
/// least `queued_ahead + 1` slots. This captures the two effects the
/// planner must respect: clients with low predicted demand are poor
/// replica holders, and even a heavy user stops being useful once its
/// queue is full.
pub fn display_probability(expected_slots: f64, queued_ahead: u32) -> f64 {
    poisson_tail(queued_ahead + 1, expected_slots.max(0.0))
}

/// Display probability under *bursty* demand: slots arrive in sessions.
///
/// Plain Poisson slot arrivals badly overestimate availability when slots
/// cluster — a client with 20 expected slots in a window usually gets them
/// from ~4 sessions, and `P(no session)` is far larger than
/// `P(no slot | independent slots)`. Model sessions as Poisson with mean
/// `dispersion * expected_slots / slots_per_session` (the `dispersion`
/// factor, in `(0, 1]`, absorbs day-level overdispersion: users take whole
/// days off more often than a Poisson process would) and require enough
/// sessions to cover the queue plus this ad.
pub fn display_probability_bursty(
    expected_slots: f64,
    queued_ahead: u32,
    slots_per_session: f64,
    dispersion: f64,
) -> f64 {
    let l = slots_per_session.max(1.0);
    let lambda_sessions = dispersion.clamp(0.0, 1.0) * expected_slots.max(0.0) / l;
    let needed_sessions = ((queued_ahead as f64 + 1.0) / l).ceil() as u32;
    poisson_tail(needed_sessions.max(1), lambda_sessions)
}

/// One candidate's [`display_probability_bursty`] as a resumable
/// Poisson-tail recurrence.
///
/// A replica candidate keeps its rate inputs for a whole sync while its
/// queue depth only grows as ads are placed on it, so the tail it needs
/// moves forward: `prob` extends the running pmf/cdf from the terms
/// already taken instead of restarting at `exp(-lambda)`. Only a query
/// needing fewer terms than were taken (the queue shrank) restarts the
/// series. The recurrence (`pmf *= lambda / j; cdf += pmf`) is
/// [`poisson_tail`]'s own loop executed once, so every answer is
/// bit-identical to the closed form for the same inputs.
#[derive(Debug, Clone, Copy)]
pub struct BurstyTail {
    /// Session-arrival rate over the window.
    lambda: f64,
    /// Slots per session, clamped to at least one.
    session: f64,
    /// `pmf(terms - 1)`.
    pmf: f64,
    /// `P(X < terms)`.
    cdf: f64,
    /// Pmf terms summed into `cdf`; 0 before the first query.
    terms: u32,
}

impl BurstyTail {
    /// The tail state for a client with `expected_slots` predicted slots
    /// in the window, at the given session length and day-level
    /// `dispersion` (see [`display_probability_bursty`]). No `exp` is
    /// paid until the first [`prob`](Self::prob).
    pub fn new(expected_slots: f64, slots_per_session: f64, dispersion: f64) -> Self {
        let session = slots_per_session.max(1.0);
        Self {
            lambda: dispersion.clamp(0.0, 1.0) * expected_slots.max(0.0) / session,
            session,
            pmf: 0.0,
            cdf: 0.0,
            terms: 0,
        }
    }

    /// [`display_probability_bursty`] at `queued_ahead`, bit for bit.
    pub fn prob(&mut self, queued_ahead: u32) -> f64 {
        let needed = (((queued_ahead as f64 + 1.0) / self.session).ceil() as u32).max(1);
        if self.lambda <= 0.0 {
            return 0.0; // needed >= 1, so the tail of an empty process.
        }
        if self.terms == 0 || needed < self.terms {
            self.pmf = (-self.lambda).exp();
            self.cdf = self.pmf;
            self.terms = 1;
        }
        while self.terms < needed {
            self.pmf *= self.lambda / self.terms as f64;
            self.cdf += self.pmf;
            self.terms += 1;
        }
        (1.0 - self.cdf).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_at_zero_is_one() {
        assert_eq!(poisson_tail(0, 5.0), 1.0);
        assert_eq!(poisson_tail(0, 0.0), 1.0);
    }

    #[test]
    fn tail_with_zero_lambda() {
        assert_eq!(poisson_tail(1, 0.0), 0.0);
        assert_eq!(poisson_tail(5, 0.0), 0.0);
    }

    #[test]
    fn tail_k1_matches_closed_form() {
        for &l in &[0.1f64, 0.5, 1.0, 3.0, 10.0] {
            let expect = 1.0 - (-l).exp();
            assert!((poisson_tail(1, l) - expect).abs() < 1e-12, "lambda {l}");
        }
    }

    #[test]
    fn tail_is_monotone_in_k_and_lambda() {
        for k in 1..10u32 {
            assert!(poisson_tail(k, 4.0) >= poisson_tail(k + 1, 4.0));
        }
        for &pair in &[(0.5, 1.0), (1.0, 2.0), (2.0, 8.0)] {
            assert!(poisson_tail(3, pair.1) >= poisson_tail(3, pair.0));
        }
    }

    #[test]
    fn tail_matches_monte_carlo() {
        use adpf_stats::dist::{Distribution, Poisson};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(99);
        let lambda = 2.5;
        let d = Poisson::new(lambda).unwrap();
        let n = 200_000;
        for k in [1u32, 2, 4] {
            let hits = (0..n).filter(|_| d.sample(&mut rng) >= k as u64).count();
            let mc = hits as f64 / n as f64;
            let analytic = poisson_tail(k, lambda);
            assert!(
                (mc - analytic).abs() < 0.005,
                "k {k}: mc {mc} vs {analytic}"
            );
        }
    }

    #[test]
    fn bursty_availability_is_below_poisson() {
        // Same expected slots, but clustered into 4-slot sessions: the
        // chance of at least one display drops sharply.
        let poisson = display_probability(8.0, 0);
        let bursty = display_probability_bursty(8.0, 0, 4.0, 1.0);
        assert!(bursty < poisson, "bursty {bursty} vs poisson {poisson}");
        // Equivalent closed form: P(>=1 session) with lambda = 2.
        assert!((bursty - (1.0 - (-2.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn bursty_dispersion_discounts() {
        let full = display_probability_bursty(8.0, 0, 4.0, 1.0);
        let half = display_probability_bursty(8.0, 0, 4.0, 0.5);
        assert!(half < full);
        assert_eq!(display_probability_bursty(8.0, 0, 4.0, 0.0), 0.0);
    }

    #[test]
    fn bursty_queue_needs_more_sessions() {
        // Queue of 4 with 4-slot sessions needs a second session.
        let shallow = display_probability_bursty(8.0, 0, 4.0, 1.0);
        let deep = display_probability_bursty(8.0, 4, 4.0, 1.0);
        assert!(deep < shallow);
        assert!((deep - poisson_tail(2, 2.0)).abs() < 1e-12);
    }

    #[test]
    fn queueing_reduces_display_probability() {
        let free = display_probability(3.0, 0);
        let busy = display_probability(3.0, 3);
        assert!(free > busy);
        assert!(display_probability(0.0, 0) == 0.0);
        assert_eq!(display_probability(-1.0, 0), 0.0);
    }
}
