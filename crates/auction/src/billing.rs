//! Impression billing and SLA tracking.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use adpf_desim::SimTime;

use crate::campaign::CampaignId;
use crate::exchange::{AdId, SoldAd};

/// Lifecycle state of one sold ad.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdState {
    /// Sold, not yet displayed.
    Pending,
    /// Displayed before its deadline (billed).
    Displayed,
    /// Deadline passed without a display (SLA violation; refunded).
    Expired,
}

/// Outcome of reporting an impression to the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImpressionOutcome {
    /// First in-deadline display: the advertiser is billed.
    Billed,
    /// The ad had already been displayed elsewhere (replication duplicate):
    /// the impression is wasted inventory.
    Duplicate,
    /// Displayed after the deadline: wasted, and the SLA was already
    /// counted as violated.
    Late,
    /// The ad id is unknown to the ledger.
    Unknown,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    campaign: CampaignId,
    price: f64,
    deadline: SimTime,
    state: AdState,
}

/// Aggregate billing totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LedgerTotals {
    /// Ads sold.
    pub sold: u64,
    /// Ads billed (displayed in time).
    pub billed: u64,
    /// Billed revenue, in currency units.
    pub revenue: f64,
    /// Value of ads sold (what revenue would be with zero expirations).
    pub sold_value: f64,
    /// SLA violations (sold ads that expired undisplayed).
    pub expired: u64,
    /// Refunded value of expired ads.
    pub refunded: f64,
    /// Duplicate displays caused by replication.
    pub duplicates: u64,
    /// Displays that arrived after the deadline.
    pub late_displays: u64,
}

impl LedgerTotals {
    /// Accumulates another ledger's totals into this one.
    ///
    /// Every field is additive, so merging the per-shard ledgers of a
    /// sharded run (in shard order, which fixes the floating-point
    /// summation order) reproduces the totals a single global ledger
    /// would have recorded for the same sales and displays.
    pub fn merge(&mut self, other: &LedgerTotals) {
        self.sold += other.sold;
        self.billed += other.billed;
        self.revenue += other.revenue;
        self.sold_value += other.sold_value;
        self.expired += other.expired;
        self.refunded += other.refunded;
        self.duplicates += other.duplicates;
        self.late_displays += other.late_displays;
    }

    /// SLA violation rate: expired / sold; `0.0` when nothing was sold.
    pub fn sla_violation_rate(&self) -> f64 {
        if self.sold == 0 {
            0.0
        } else {
            self.expired as f64 / self.sold as f64
        }
    }
}

/// Tracks every sold ad from sale to display or expiration.
///
/// Billing policy (the paper's): the advertiser pays for exactly one
/// in-deadline display. Replication may cause additional displays on other
/// clients; those are *not* billed — they consume client slots that could
/// have shown other paid ads, which is precisely the "revenue loss" the
/// overbooking model must keep negligible.
///
/// The exchange issues ad ids densely from 0, so entries live in a `Vec`
/// indexed by id; an id far past the dense range (more than
/// `DENSE_GAP` beyond it) goes to an ordered side map instead, so a
/// sparse id costs one entry rather than a run of empty slots. Sales
/// with a finite deadline also enter a min-heap of `(deadline, id)`, so
/// an expiry sweep visits only the ads that came due rather than every
/// ad ever sold.
#[derive(Debug, Default)]
pub struct Ledger {
    /// `ads[id]`: the entry of ad `id`, `None` for an id never sold.
    ads: Vec<Option<Entry>>,
    /// Entries whose id lies beyond the dense range.
    sparse: BTreeMap<u64, Entry>,
    /// `(deadline, id)` of every sale with a finite deadline, earliest
    /// first. Settled ads stay until their deadline passes and are
    /// skipped then.
    deadlines: BinaryHeap<Reverse<(SimTime, u64)>>,
    totals: LedgerTotals,
}

impl Ledger {
    /// How far past the dense range an id may land and still extend it.
    const DENSE_GAP: u64 = 1024;

    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    fn entry(&self, id: u64) -> Option<&Entry> {
        if id < self.ads.len() as u64 {
            self.ads[id as usize].as_ref()
        } else {
            self.sparse.get(&id)
        }
    }

    /// The entry of ad `id`, borrowing only the two entry stores so the
    /// caller can update `totals` alongside it.
    fn entry_mut<'a>(
        ads: &'a mut [Option<Entry>],
        sparse: &'a mut BTreeMap<u64, Entry>,
        id: u64,
    ) -> Option<&'a mut Entry> {
        if id < ads.len() as u64 {
            ads[id as usize].as_mut()
        } else {
            sparse.get_mut(&id)
        }
    }

    /// Registers a sale.
    pub fn record_sale(&mut self, ad: &SoldAd) {
        let entry = Entry {
            campaign: ad.campaign,
            price: ad.price,
            deadline: ad.deadline,
            state: AdState::Pending,
        };
        let id = ad.id.0;
        let len = self.ads.len() as u64;
        let prev = if id < len {
            self.ads[id as usize].replace(entry)
        } else if id - len <= Self::DENSE_GAP {
            self.ads.resize(id as usize + 1, None);
            // Side-map entries the dense range now covers move into it.
            while let Some(e) = self.sparse.first_entry() {
                if *e.key() > id {
                    break;
                }
                let (k, v) = e.remove_entry();
                self.ads[k as usize] = Some(v);
            }
            self.ads[id as usize].replace(entry)
        } else {
            self.sparse.insert(id, entry)
        };
        debug_assert!(prev.is_none(), "ad {} sold twice", ad.id);
        if ad.deadline != SimTime::MAX {
            self.deadlines.push(Reverse((ad.deadline, id)));
        }
        self.totals.sold += 1;
        self.totals.sold_value += ad.price;
    }

    /// Reports a display of `ad` at `at`.
    pub fn record_impression(&mut self, ad: AdId, at: SimTime) -> ImpressionOutcome {
        let Some(entry) = Self::entry_mut(&mut self.ads, &mut self.sparse, ad.0) else {
            return ImpressionOutcome::Unknown;
        };
        let totals = &mut self.totals;
        match entry.state {
            AdState::Pending => {
                if at <= entry.deadline {
                    entry.state = AdState::Displayed;
                    totals.billed += 1;
                    totals.revenue += entry.price;
                    ImpressionOutcome::Billed
                } else {
                    // The expiry sweep may not have run yet; settle it now.
                    entry.state = AdState::Expired;
                    totals.expired += 1;
                    totals.refunded += entry.price;
                    totals.late_displays += 1;
                    ImpressionOutcome::Late
                }
            }
            AdState::Displayed => {
                totals.duplicates += 1;
                ImpressionOutcome::Duplicate
            }
            AdState::Expired => {
                totals.late_displays += 1;
                ImpressionOutcome::Late
            }
        }
    }

    /// Expires every pending ad whose deadline is before `now`; returns
    /// `(ad, campaign, price)` for each so the exchange can refund.
    pub fn expire_due(&mut self, now: SimTime) -> Vec<(AdId, CampaignId, f64)> {
        let mut due = Vec::new();
        while let Some(&Reverse((deadline, id))) = self.deadlines.peek() {
            if deadline >= now {
                break;
            }
            self.deadlines.pop();
            if self
                .entry(id)
                .is_some_and(|e| e.state == AdState::Pending && e.deadline < now)
            {
                due.push(id);
            }
        }
        // Settle in id order, not deadline order: the refund total is a
        // floating-point sum, so its order is part of every report.
        due.sort_unstable();
        due.dedup();
        let mut refunds = Vec::with_capacity(due.len());
        for id in due {
            let entry =
                Self::entry_mut(&mut self.ads, &mut self.sparse, id).expect("collected above");
            entry.state = AdState::Expired;
            self.totals.expired += 1;
            self.totals.refunded += entry.price;
            refunds.push((AdId(id), entry.campaign, entry.price));
        }
        refunds
    }

    /// State of an ad, if known.
    pub fn state(&self, ad: AdId) -> Option<AdState> {
        self.entry(ad.0).map(|e| e.state)
    }

    /// Current totals.
    pub fn totals(&self) -> LedgerTotals {
        self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sold(id: u64, price: f64, deadline_h: u64) -> SoldAd {
        SoldAd {
            id: AdId(id),
            campaign: CampaignId(1),
            price,
            winning_bid: price,
            deadline: SimTime::from_hours(deadline_h),
            sold_at: SimTime::ZERO,
        }
    }

    #[test]
    fn first_display_bills_once() {
        let mut l = Ledger::new();
        l.record_sale(&sold(1, 0.002, 4));
        assert_eq!(
            l.record_impression(AdId(1), SimTime::from_hours(1)),
            ImpressionOutcome::Billed
        );
        assert_eq!(
            l.record_impression(AdId(1), SimTime::from_hours(2)),
            ImpressionOutcome::Duplicate
        );
        let t = l.totals();
        assert_eq!(t.billed, 1);
        assert_eq!(t.duplicates, 1);
        assert!((t.revenue - 0.002).abs() < 1e-12);
        assert_eq!(t.sla_violation_rate(), 0.0);
    }

    #[test]
    fn expiry_refunds_pending_ads() {
        let mut l = Ledger::new();
        l.record_sale(&sold(1, 0.001, 2));
        l.record_sale(&sold(2, 0.003, 10));
        let refunds = l.expire_due(SimTime::from_hours(5));
        assert_eq!(refunds.len(), 1);
        assert_eq!(refunds[0].0, AdId(1));
        let t = l.totals();
        assert_eq!(t.expired, 1);
        assert!((t.refunded - 0.001).abs() < 1e-12);
        assert!((t.sla_violation_rate() - 0.5).abs() < 1e-12);
        assert_eq!(l.state(AdId(1)), Some(AdState::Expired));
        assert_eq!(l.state(AdId(2)), Some(AdState::Pending));
    }

    #[test]
    fn late_display_counts_as_violation_not_revenue() {
        let mut l = Ledger::new();
        l.record_sale(&sold(1, 0.002, 1));
        assert_eq!(
            l.record_impression(AdId(1), SimTime::from_hours(3)),
            ImpressionOutcome::Late
        );
        let t = l.totals();
        assert_eq!(t.billed, 0);
        assert_eq!(t.expired, 1);
        assert_eq!(t.late_displays, 1);
        assert_eq!(t.revenue, 0.0);
    }

    #[test]
    fn display_exactly_at_deadline_is_billed() {
        let mut l = Ledger::new();
        l.record_sale(&sold(1, 0.002, 2));
        assert_eq!(
            l.record_impression(AdId(1), SimTime::from_hours(2)),
            ImpressionOutcome::Billed
        );
    }

    #[test]
    fn unknown_ads_are_flagged() {
        let mut l = Ledger::new();
        assert_eq!(
            l.record_impression(AdId(99), SimTime::ZERO),
            ImpressionOutcome::Unknown
        );
        assert_eq!(l.state(AdId(99)), None);
    }

    #[test]
    fn display_on_expired_ad_is_late() {
        let mut l = Ledger::new();
        l.record_sale(&sold(1, 0.002, 1));
        l.expire_due(SimTime::from_hours(2));
        assert_eq!(
            l.record_impression(AdId(1), SimTime::from_hours(3)),
            ImpressionOutcome::Late
        );
        // Only one expiration counted even though a display also came late.
        assert_eq!(l.totals().expired, 1);
        assert_eq!(l.totals().late_displays, 1);
    }

    #[test]
    fn merged_totals_match_a_single_ledger() {
        // Split the same activity across two ledgers; the merged totals
        // equal one ledger seeing everything.
        let mut whole = Ledger::new();
        let mut left = Ledger::new();
        let mut right = Ledger::new();
        for i in 0..8 {
            let ad = sold(i, 0.001 * (i + 1) as f64, if i % 3 == 0 { 1 } else { 50 });
            whole.record_sale(&ad);
            if i % 2 == 0 { &mut left } else { &mut right }.record_sale(&ad);
        }
        for i in [1u64, 2, 5] {
            whole.record_impression(AdId(i), SimTime::from_hours(2));
            if i % 2 == 0 { &mut left } else { &mut right }
                .record_impression(AdId(i), SimTime::from_hours(2));
        }
        whole.expire_due(SimTime::from_hours(10));
        left.expire_due(SimTime::from_hours(10));
        right.expire_due(SimTime::from_hours(10));

        let mut merged = LedgerTotals::default();
        merged.merge(&left.totals());
        merged.merge(&right.totals());
        let w = whole.totals();
        assert_eq!(merged.sold, w.sold);
        assert_eq!(merged.billed, w.billed);
        assert_eq!(merged.expired, w.expired);
        assert!((merged.revenue - w.revenue).abs() < 1e-12);
        assert!((merged.refunded - w.refunded).abs() < 1e-12);
        assert!((merged.sold_value - w.sold_value).abs() < 1e-12);
    }

    #[test]
    fn merge_with_default_is_identity() {
        let mut l = Ledger::new();
        l.record_sale(&sold(1, 0.002, 4));
        l.record_impression(AdId(1), SimTime::from_hours(1));
        let mut t = l.totals();
        t.merge(&LedgerTotals::default());
        assert_eq!(t, l.totals());
    }

    #[test]
    fn totals_conserve_value() {
        let mut l = Ledger::new();
        for i in 0..10 {
            l.record_sale(&sold(i, 0.001, if i % 2 == 0 { 1 } else { 100 }));
        }
        for i in 0..5 {
            l.record_impression(AdId(2 * i + 1), SimTime::from_hours(3));
        }
        l.expire_due(SimTime::from_hours(50));
        let t = l.totals();
        assert!((t.revenue + t.refunded - t.sold_value).abs() < 1e-12);
        assert_eq!(t.billed + t.expired, t.sold);
    }
}
