//! Differential test of the billing ledger against a reference ledger.
//!
//! The reference below is the straightforward design: one `HashMap`
//! entry per sold ad, and an expiry sweep that scans every entry and
//! settles the due ones in id order. The production [`Ledger`] keeps
//! dense id-indexed storage, a side map for sparse ids and a deadline
//! heap; under random sales, displays and sweeps both must return the
//! same outcomes, the same refunds in the same order, and bitwise-equal
//! totals — the refund sum's order is part of every report hash.

use std::collections::{HashMap, HashSet};

use adpf_auction::{AdId, AdState, CampaignId, ImpressionOutcome, Ledger, LedgerTotals, SoldAd};
use adpf_desim::SimTime;
use proptest::prelude::*;

#[derive(Clone, Copy)]
struct RefEntry {
    campaign: CampaignId,
    price: f64,
    deadline: SimTime,
    state: AdState,
}

/// The reference ledger: a hash map scanned in full at every sweep.
#[derive(Default)]
struct RefLedger {
    ads: HashMap<u64, RefEntry>,
    totals: LedgerTotals,
}

impl RefLedger {
    fn record_sale(&mut self, ad: &SoldAd) {
        self.ads.insert(
            ad.id.0,
            RefEntry {
                campaign: ad.campaign,
                price: ad.price,
                deadline: ad.deadline,
                state: AdState::Pending,
            },
        );
        self.totals.sold += 1;
        self.totals.sold_value += ad.price;
    }

    fn record_impression(&mut self, ad: AdId, at: SimTime) -> ImpressionOutcome {
        let Some(e) = self.ads.get_mut(&ad.0) else {
            return ImpressionOutcome::Unknown;
        };
        match e.state {
            AdState::Pending if at <= e.deadline => {
                e.state = AdState::Displayed;
                self.totals.billed += 1;
                self.totals.revenue += e.price;
                ImpressionOutcome::Billed
            }
            AdState::Pending => {
                e.state = AdState::Expired;
                self.totals.expired += 1;
                self.totals.refunded += e.price;
                self.totals.late_displays += 1;
                ImpressionOutcome::Late
            }
            AdState::Displayed => {
                self.totals.duplicates += 1;
                ImpressionOutcome::Duplicate
            }
            AdState::Expired => {
                self.totals.late_displays += 1;
                ImpressionOutcome::Late
            }
        }
    }

    fn expire_due(&mut self, now: SimTime) -> Vec<(AdId, CampaignId, f64)> {
        let mut due: Vec<u64> = self
            .ads
            .iter()
            .filter(|(_, e)| e.state == AdState::Pending && e.deadline < now)
            .map(|(&id, _)| id)
            .collect();
        due.sort_unstable();
        due.into_iter()
            .map(|id| {
                let e = self.ads.get_mut(&id).unwrap();
                e.state = AdState::Expired;
                self.totals.expired += 1;
                self.totals.refunded += e.price;
                (AdId(id), e.campaign, e.price)
            })
            .collect()
    }
}

/// Ids outside the dense range. Sold early, `1_100` and `2_000` land in
/// the side map; `1_030` then extends the dense range to within reach
/// of `2_000`, and selling `2_000` (or `2_003`) next pulls the side-map
/// ids below it into the dense range. The rest stay sparse: a lone
/// large id and ids near the top of the id space.
const SPARSE_IDS: [u64; 9] = [
    1_030,
    1_100,
    2_000,
    2_003,
    1 << 20,
    1 << 40,
    u64::MAX - 2,
    u64::MAX - 1,
    u64::MAX,
];

#[derive(Debug, Clone)]
enum Op {
    /// Sell the next dense id (`sparse = None`) or `SPARSE_IDS[i]`, with
    /// a deadline in hours (`None`: a realtime sale, `SimTime::MAX`).
    Sale {
        sparse: Option<usize>,
        deadline_h: Option<u64>,
        price: f64,
    },
    /// Display the `pick`-th sold ad (modulo the count; unknown ids when
    /// nothing is sold yet or `unknown` is set) at `at_h` hours.
    Display {
        pick: usize,
        unknown: bool,
        at_h: u64,
    },
    /// Sweep at `now_h` hours (not necessarily increasing).
    Expire { now_h: u64 },
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..10, 0usize..64, 0u64..60, 0.0001f64..0.01, 0u8..8).prop_map(
        |(kind, pick, hours, price, sel)| match kind {
            0..=3 => Op::Sale {
                sparse: (sel == 0).then_some(pick % SPARSE_IDS.len()),
                deadline_h: (sel != 1).then_some(hours),
                price,
            },
            4..=7 => Op::Display {
                pick,
                unknown: sel == 0,
                at_h: hours,
            },
            _ => Op::Expire { now_h: hours },
        },
    )
}

fn assert_totals_bitwise(got: LedgerTotals, want: LedgerTotals) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        (
            got.sold,
            got.billed,
            got.expired,
            got.duplicates,
            got.late_displays
        ),
        (
            want.sold,
            want.billed,
            want.expired,
            want.duplicates,
            want.late_displays
        )
    );
    prop_assert_eq!(
        (
            got.revenue.to_bits(),
            got.sold_value.to_bits(),
            got.refunded.to_bits()
        ),
        (
            want.revenue.to_bits(),
            want.sold_value.to_bits(),
            want.refunded.to_bits()
        )
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ledger_matches_the_hashmap_reference(ops in prop::collection::vec(op(), 1..300)) {
        let mut ledger = Ledger::new();
        let mut reference = RefLedger::default();
        let mut next_dense = 0u64;
        let mut sold: Vec<u64> = Vec::new();
        let mut seen: HashSet<u64> = HashSet::new();
        for op in ops {
            match op {
                Op::Sale { sparse, deadline_h, price } => {
                    let id = match sparse {
                        Some(i) => SPARSE_IDS[i],
                        None => {
                            next_dense += 1;
                            next_dense - 1
                        }
                    };
                    if !seen.insert(id) {
                        continue; // Each id is sold at most once.
                    }
                    let ad = SoldAd {
                        id: AdId(id),
                        campaign: CampaignId((id % 7) as u32),
                        price,
                        winning_bid: price,
                        deadline: deadline_h.map_or(SimTime::MAX, SimTime::from_hours),
                        sold_at: SimTime::ZERO,
                    };
                    ledger.record_sale(&ad);
                    reference.record_sale(&ad);
                    sold.push(id);
                }
                Op::Display { pick, unknown, at_h } => {
                    let id = if unknown || sold.is_empty() {
                        1_000 + pick as u64
                    } else {
                        sold[pick % sold.len()]
                    };
                    let at = SimTime::from_hours(at_h);
                    prop_assert_eq!(
                        ledger.record_impression(AdId(id), at),
                        reference.record_impression(AdId(id), at),
                        "display of ad {} at {}h", id, at_h
                    );
                }
                Op::Expire { now_h } => {
                    let now = SimTime::from_hours(now_h);
                    let got = ledger.expire_due(now);
                    let want = reference.expire_due(now);
                    let bits = |v: &[(AdId, CampaignId, f64)]| -> Vec<(u64, u32, u64)> {
                        v.iter().map(|&(a, c, p)| (a.0, c.0, p.to_bits())).collect()
                    };
                    prop_assert_eq!(bits(&got), bits(&want), "sweep at {}h", now_h);
                }
            }
            assert_totals_bitwise(ledger.totals(), reference.totals)?;
        }
        for &id in &sold {
            prop_assert_eq!(ledger.state(AdId(id)), Some(reference.ads[&id].state));
        }
        // Realtime sales never expire; every finite deadline does.
        let got = ledger.expire_due(SimTime::MAX);
        let want = reference.expire_due(SimTime::MAX);
        prop_assert_eq!(got.len(), want.len());
        assert_totals_bitwise(ledger.totals(), reference.totals)?;
    }
}
