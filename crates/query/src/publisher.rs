//! Epoch publishing: single writer, many wait-free readers — with a
//! quarantine gate in front of the swap.
//!
//! The protocol (DESIGN.md §10, §12) is a double-buffered epoch swap:
//!
//! * The shared state is one atomic epoch counter plus two slots, each
//!   holding a complete `(epoch, Arc<Snapshot>)` pair. Epoch `e` lives
//!   in slot `e & 1`, so the writer always overwrites the slot readers
//!   of the *current* epoch are not directed to.
//! * **Validate** (writer): before any shared mutation, the candidate
//!   runs [`Snapshot::verify`] against its freeze-time checksums. A
//!   corrupt candidate never touches a slot: it is recorded in the
//!   bounded [`QuarantineLog`], the rejection counter ticks, and the
//!   last-good epoch keeps serving unchanged ([`PublishError`] tells
//!   the writer why).
//! * **Publish** (writer): write the new pair into slot `(e+1) & 1`,
//!   *then* advance the epoch counter with `Release`. The slot is
//!   complete before any reader can be routed to it.
//! * **Refresh** (reader): load the epoch with `Acquire`; if it moved,
//!   `try_lock` the indicated slot and clone the `Arc` out. The slot
//!   lock is only ever held for that clone (or the writer's pair
//!   store), never while answering queries — and because a slot is
//!   written *before* the epoch advances, a successfully locked slot
//!   always holds a complete snapshot at least as new as the loaded
//!   epoch. If `try_lock` loses the race with a concurrent publish, the
//!   reader simply keeps serving its cached snapshot — still complete,
//!   at worst one epoch stale — and retries on the next query. Readers
//!   hold the shared state weakly: if the publisher is dropped
//!   mid-flight, [`SnapshotReader::try_refresh`] reports
//!   [`ReaderError::PublisherGone`] and the reader keeps serving its
//!   cached (complete) snapshot forever.
//!
//! Consequences, which `tests/epoch_publish.rs` and `tests/chaos.rs`
//! pin down:
//!
//! * Readers never block and never allocate: the hot path is one atomic
//!   load plus (rarely) one uncontended `try_lock` and an `Arc` clone.
//! * A reader can never observe a torn *or damaged* snapshot: snapshots
//!   are immutable after freeze, the only shared mutation — the slot
//!   pair store — happens before the epoch that routes readers to it,
//!   and the quarantine gate keeps corrupt candidates out of the slots
//!   entirely.
//! * Per-reader epochs are monotone: a refresh only ever installs a
//!   strictly newer snapshot.
//!
//! This module is the query tier's *only* home of lock types: the
//! in-tree linter's Q1 rule forbids `Mutex`/`RwLock` anywhere else in
//! the crate, keeping the read paths honest by construction. Its R1
//! rule additionally bans `unwrap`/`expect` in this crate's library
//! code: a poisoned slot mutex (a reader panicked mid-`Arc`-clone) is
//! recovered with [`PoisonError::into_inner`] — the slot pair is always
//! complete, so the data behind a poisoned lock is still valid.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};

use popan_geom::{Point2, Rect};
use popan_spatial::{BoundedOutcome, CostBudget, FreezeError, PrQuadtree, QueryScratch};

use crate::snapshot::{Snapshot, SnapshotCorruption};

/// Rejections the [`QuarantineLog`] retains before evicting the oldest
/// (evictions are counted, never silent).
pub const QUARANTINE_LOG_CAP: usize = 32;

/// One published pair. Slot `i` only ever holds epochs `e ≡ i (mod 2)`.
struct Slot {
    epoch: u64,
    snap: Arc<Snapshot>,
}

/// State shared between the writer and all readers.
struct Shared {
    /// The latest published epoch; advanced with `Release` after the
    /// owning slot holds the complete pair.
    epoch: AtomicU64,
    /// Double buffer, indexed by `epoch & 1`.
    slots: [Mutex<Slot>; 2],
    /// Degraded ([`BoundedOutcome::Partial`]) answers served across all
    /// readers; feeds [`ServiceHealth::degraded_answers`].
    degraded: AtomicU64,
}

/// Recovers the slot pair behind a poisoned lock: the pair is written
/// atomically under the lock and is complete at every instant a reader
/// could panic, so the data is still valid.
fn relock<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// The single writer of an epoch sequence.
///
/// Not `Clone` — single-writer is a type-level invariant. Create
/// readers with [`SnapshotPublisher::subscribe`].
pub struct SnapshotPublisher {
    shared: Arc<Shared>,
    current: u64,
    rejected: u64,
    quarantine: QuarantineLog,
}

impl SnapshotPublisher {
    /// Creates a publisher whose initial snapshot is `initial`,
    /// re-stamped as epoch 0 and installed in both slots (so any routed
    /// read is valid from the start).
    pub fn new(initial: Snapshot) -> SnapshotPublisher {
        let snap = Arc::new(initial.with_epoch(0));
        let shared = Arc::new(Shared {
            epoch: AtomicU64::new(0),
            slots: [
                Mutex::new(Slot {
                    epoch: 0,
                    snap: Arc::clone(&snap),
                }),
                Mutex::new(Slot { epoch: 0, snap }),
            ],
            degraded: AtomicU64::new(0),
        });
        SnapshotPublisher {
            shared,
            current: 0,
            rejected: 0,
            quarantine: QuarantineLog::new(),
        }
    }

    /// The latest published (last-good) epoch.
    pub fn epoch(&self) -> u64 {
        self.current
    }

    /// Validates `snapshot` and, if its checksums hold, publishes it as
    /// the next epoch and returns that epoch. The snapshot's embedded
    /// epoch is overwritten with the assigned one; readers observe the
    /// new epoch only after the slot holds the complete pair.
    ///
    /// A candidate that fails [`Snapshot::verify`] is quarantined
    /// instead: no slot is touched, the last-good epoch keeps serving,
    /// the rejection is logged, and the corruption report comes back as
    /// [`PublishError::Corrupt`]. A later valid candidate takes the
    /// same epoch number the rejected one would have — the published
    /// sequence stays gapless.
    pub fn publish(&mut self, snapshot: Snapshot) -> Result<u64, PublishError> {
        if let Err(report) = snapshot.verify() {
            self.log_rejection(&snapshot, QuarantineCause::Corrupt(report.clone()));
            return Err(PublishError::Corrupt(report));
        }
        let epoch = self.current + 1;
        let snap = Arc::new(snapshot.with_epoch(epoch));
        {
            let mut slot = relock(self.shared.slots[(epoch & 1) as usize].lock());
            *slot = Slot { epoch, snap };
        }
        self.shared.epoch.store(epoch, Ordering::Release);
        self.current = epoch;
        Ok(epoch)
    }

    /// Forcibly rejects `snapshot` without publishing it (the
    /// `reject-epoch` fault in the chaos vocabulary): logs a
    /// [`QuarantineCause::Forced`] entry and returns the epoch the
    /// candidate would have taken. The last-good epoch keeps serving.
    pub fn quarantine(&mut self, snapshot: &Snapshot) -> u64 {
        self.log_rejection(snapshot, QuarantineCause::Forced);
        self.current + 1
    }

    fn log_rejection(&mut self, snapshot: &Snapshot, cause: QuarantineCause) {
        self.rejected += 1;
        self.quarantine.push(QuarantineEntry {
            seq: self.rejected,
            candidate_epoch: self.current + 1,
            len: snapshot.len(),
            cause,
        });
    }

    /// Freezes `tree`, validates, and publishes it as the next epoch.
    pub fn freeze_and_publish(&mut self, tree: &PrQuadtree) -> Result<u64, PublishError> {
        let snap = Snapshot::freeze(0, tree).map_err(PublishError::Freeze)?;
        self.publish(snap)
    }

    /// The quarantine log: every rejection since startup, newest last,
    /// bounded at [`QUARANTINE_LOG_CAP`] retained entries.
    pub fn quarantine_log(&self) -> &QuarantineLog {
        &self.quarantine
    }

    /// Aggregate serving health: last-good epoch, rejections, degraded
    /// answers across every subscribed reader.
    pub fn health(&self) -> ServiceHealth {
        ServiceHealth {
            last_good_epoch: self.current,
            rejected: self.rejected,
            degraded_answers: self.shared.degraded.load(Ordering::Relaxed),
            quarantined: self.quarantine.len(),
        }
    }

    /// Creates a reader handle starting at the latest published epoch.
    pub fn subscribe(&self) -> SnapshotReader {
        let epoch = self.shared.epoch.load(Ordering::Acquire);
        let slot = relock(self.shared.slots[(epoch & 1) as usize].lock());
        SnapshotReader {
            shared: Arc::downgrade(&self.shared),
            cached_epoch: slot.epoch,
            cached: Arc::clone(&slot.snap),
        }
    }
}

/// Why a publish was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum PublishError {
    /// The candidate failed checksum verification; the report names the
    /// damaged section(s). The candidate was quarantined and the
    /// last-good epoch keeps serving.
    Corrupt(SnapshotCorruption),
    /// Freezing the tree failed before validation could even run.
    Freeze(FreezeError),
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::Corrupt(report) => write!(f, "candidate quarantined: {report}"),
            PublishError::Freeze(e) => write!(f, "freezing candidate: {e}"),
        }
    }
}

impl std::error::Error for PublishError {}

/// Why a candidate landed in the [`QuarantineLog`].
#[derive(Debug, Clone, PartialEq)]
pub enum QuarantineCause {
    /// Checksum verification failed with this report.
    Corrupt(SnapshotCorruption),
    /// Operator- or fault-plan-forced rejection
    /// ([`SnapshotPublisher::quarantine`]).
    Forced,
}

/// One rejected candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineEntry {
    /// 1-based rejection number, stable even after log eviction.
    pub seq: u64,
    /// The epoch the candidate would have been published at.
    pub candidate_epoch: u64,
    /// Points the rejected candidate claimed to hold.
    pub len: usize,
    /// Why it was rejected.
    pub cause: QuarantineCause,
}

/// A bounded, deterministic record of rejected candidates: entries are
/// kept in rejection order, newest last; once more than
/// [`QUARANTINE_LOG_CAP`] accumulate the oldest are evicted and
/// counted in [`QuarantineLog::evicted`].
#[derive(Debug, Default)]
pub struct QuarantineLog {
    entries: VecDeque<QuarantineEntry>,
    evicted: u64,
}

impl QuarantineLog {
    fn new() -> QuarantineLog {
        QuarantineLog::default()
    }

    fn push(&mut self, entry: QuarantineEntry) {
        self.entries.push_back(entry);
        while self.entries.len() > QUARANTINE_LOG_CAP {
            self.entries.pop_front();
            self.evicted += 1;
        }
    }

    /// Retained entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &QuarantineEntry> {
        self.entries.iter()
    }

    /// The most recent rejection, if any.
    pub fn latest(&self) -> Option<&QuarantineEntry> {
        self.entries.back()
    }

    /// Number of retained entries (≤ [`QUARANTINE_LOG_CAP`]).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has ever been rejected (or everything
    /// retained was evicted — see [`QuarantineLog::evicted`]).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries evicted to honor the cap.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

/// Aggregate serving health, the shape `popan-experiments` and the ops
/// tooling poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceHealth {
    /// The epoch currently being served (never a quarantined one).
    pub last_good_epoch: u64,
    /// Candidates rejected since startup (corrupt + forced).
    pub rejected: u64,
    /// Degraded ([`BoundedOutcome::Partial`]) answers served across all
    /// readers.
    pub degraded_answers: u64,
    /// Entries currently retained in the quarantine log.
    pub quarantined: usize,
}

/// Reader-side failures. The reader's cached snapshot stays valid and
/// serving through every one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReaderError {
    /// The publisher (and its shared epoch state) has been dropped; no
    /// newer epoch can ever arrive. The cached snapshot keeps serving.
    PublisherGone,
}

impl std::fmt::Display for ReaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReaderError::PublisherGone => {
                f.write_str("publisher dropped; serving the cached snapshot")
            }
        }
    }
}

impl std::error::Error for ReaderError {}

/// A reader handle: serves queries from a cached [`Arc<Snapshot>`]
/// guard, re-syncing opportunistically. One per reader thread
/// (`SnapshotReader` is `Send`; create as many as needed).
///
/// The shared epoch state is held weakly: dropping the publisher does
/// not wedge readers — they degrade to serving the cached snapshot and
/// report [`ReaderError::PublisherGone`] on [`SnapshotReader::try_refresh`].
pub struct SnapshotReader {
    shared: Weak<Shared>,
    cached_epoch: u64,
    cached: Arc<Snapshot>,
}

impl SnapshotReader {
    /// Re-syncs with the publisher if a newer epoch is out; `Ok(true)`
    /// when a newer snapshot was installed, `Ok(false)` when already
    /// current or the slot `try_lock` lost a race with a concurrent
    /// publish (the cached snapshot is still complete, at worst one
    /// epoch stale). [`ReaderError::PublisherGone`] when the publisher
    /// has been dropped — the cached snapshot remains valid and keeps
    /// serving. Never blocks; performs no heap allocation.
    pub fn try_refresh(&mut self) -> Result<bool, ReaderError> {
        let shared = self.shared.upgrade().ok_or(ReaderError::PublisherGone)?;
        let observed = shared.epoch.load(Ordering::Acquire);
        if observed == self.cached_epoch {
            return Ok(false);
        }
        if let Ok(slot) = shared.slots[(observed & 1) as usize].try_lock() {
            // The slot is written before the epoch advances, so it holds
            // a complete pair with epoch ≥ observed > cached (the epoch
            // counter is monotone); the guard keeps per-reader epochs
            // monotone even if a future refactor weakens that argument.
            if slot.epoch > self.cached_epoch {
                self.cached_epoch = slot.epoch;
                self.cached = Arc::clone(&slot.snap);
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// [`SnapshotReader::try_refresh`], treating a vanished publisher as
    /// "nothing newer" — the ergonomic form for readers that don't care
    /// why no new epoch arrived.
    pub fn refresh(&mut self) -> bool {
        self.try_refresh().unwrap_or(false)
    }

    /// The freshest available snapshot: refreshes opportunistically,
    /// then returns the guard.
    pub fn current(&mut self) -> &Snapshot {
        self.refresh();
        &self.cached
    }

    /// The cached snapshot without attempting a refresh.
    pub fn cached(&self) -> &Snapshot {
        &self.cached
    }

    /// An owned guard on the freshest available snapshot, for holding
    /// across a batch while the writer keeps publishing.
    pub fn guard(&mut self) -> Arc<Snapshot> {
        self.refresh();
        Arc::clone(&self.cached)
    }

    /// The epoch of the cached snapshot.
    pub fn epoch(&self) -> u64 {
        self.cached_epoch
    }

    /// Budgeted range query against the freshest available snapshot; a
    /// [`BoundedOutcome::Partial`] answer (the guaranteed canonical
    /// prefix) ticks the service-wide degraded-answer counter.
    pub fn range_bounded(
        &mut self,
        query: &Rect,
        budget: &CostBudget,
        scratch: &mut QueryScratch,
        out: &mut Vec<Point2>,
    ) -> BoundedOutcome {
        self.refresh();
        let outcome = self.cached.range_bounded_into(query, budget, scratch, out);
        self.note(&outcome);
        outcome
    }

    /// Budgeted count against the freshest available snapshot; the
    /// count is the length of the prefix [`SnapshotReader::range_bounded`]
    /// would return under the same budget.
    pub fn count_bounded(
        &mut self,
        query: &Rect,
        budget: &CostBudget,
        scratch: &mut QueryScratch,
    ) -> (usize, BoundedOutcome) {
        self.refresh();
        let (n, outcome) = self.cached.count_bounded_with(query, budget, scratch);
        self.note(&outcome);
        (n, outcome)
    }

    /// Budgeted k-NN against the freshest available snapshot; a partial
    /// answer is a true prefix of the full k-NN answer.
    pub fn knn_bounded(
        &mut self,
        target: &Point2,
        k: usize,
        budget: &CostBudget,
        scratch: &mut QueryScratch,
        out: &mut Vec<Point2>,
    ) -> BoundedOutcome {
        self.refresh();
        let outcome = self
            .cached
            .knn_bounded_into(target, k, budget, scratch, out);
        self.note(&outcome);
        outcome
    }

    fn note(&self, outcome: &BoundedOutcome) {
        if !outcome.is_complete() {
            if let Some(shared) = self.shared.upgrade() {
                shared.degraded.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Snapshot {
    /// Re-stamps the epoch (publisher-assigned epochs are the truth).
    fn with_epoch(mut self, epoch: u64) -> Snapshot {
        self.set_epoch(epoch);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queryable::Queryable;
    use popan_spatial::SnapshotSection;

    fn snap_of(n: usize) -> Snapshot {
        Snapshot::from_points(
            0,
            Rect::unit(),
            2,
            (0..n).map(|i| Point2::new((i as f64 + 0.5) / n as f64, 0.5)),
        )
        .unwrap()
    }

    #[test]
    fn publish_advances_epochs_and_readers_follow() {
        let mut publisher = SnapshotPublisher::new(snap_of(1));
        let mut reader = publisher.subscribe();
        assert_eq!(reader.epoch(), 0);
        assert_eq!(reader.current().len(), 1);

        assert_eq!(publisher.publish(snap_of(2)).unwrap(), 1);
        assert_eq!(publisher.publish(snap_of(3)).unwrap(), 2);
        assert_eq!(publisher.epoch(), 2);
        // The reader skips straight to the freshest epoch.
        assert_eq!(reader.current().len(), 3);
        assert_eq!(reader.epoch(), 2);
        assert_eq!(reader.current().epoch(), 2);
    }

    #[test]
    fn cached_serves_without_resync() {
        let mut publisher = SnapshotPublisher::new(snap_of(4));
        let reader = publisher.subscribe();
        publisher.publish(snap_of(5)).unwrap();
        // `cached` deliberately does not chase the new epoch.
        assert_eq!(reader.cached().len(), 4);
    }

    #[test]
    fn guard_outlives_subsequent_publishes() {
        let mut publisher = SnapshotPublisher::new(snap_of(2));
        let mut reader = publisher.subscribe();
        let guard = reader.guard();
        for _ in 0..5 {
            publisher.publish(snap_of(7)).unwrap();
        }
        // The guard pins the old snapshot; a refresh then moves on.
        assert_eq!(guard.len(), 2);
        assert!(reader.refresh());
        assert_eq!(reader.cached().len(), 7);
        assert!(!reader.refresh(), "second refresh is a no-op");
    }

    #[test]
    fn corrupt_candidates_are_quarantined_and_last_good_serves() {
        let mut publisher = SnapshotPublisher::new(snap_of(3));
        let mut reader = publisher.subscribe();
        assert_eq!(publisher.publish(snap_of(5)).unwrap(), 1);

        let mut bad = snap_of(9);
        assert!(bad.corrupt_section(SnapshotSection::Points, 42));
        let err = publisher.publish(bad).unwrap_err();
        match &err {
            PublishError::Corrupt(report) => {
                assert_eq!(report.damaged, vec![SnapshotSection::Points])
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // No epoch advanced; the reader still sees the last good one.
        assert_eq!(publisher.epoch(), 1);
        assert_eq!(reader.current().len(), 5);
        assert_eq!(reader.epoch(), 1);

        // The rejection is logged and counted.
        let health = publisher.health();
        assert_eq!(health.last_good_epoch, 1);
        assert_eq!(health.rejected, 1);
        assert_eq!(health.quarantined, 1);
        let entry = publisher.quarantine_log().latest().unwrap();
        assert_eq!(entry.seq, 1);
        assert_eq!(entry.candidate_epoch, 2);
        assert_eq!(entry.len, 9);
        assert!(matches!(entry.cause, QuarantineCause::Corrupt(_)));

        // Recovery: the next valid candidate takes the freed epoch.
        assert_eq!(publisher.publish(snap_of(6)).unwrap(), 2);
        assert_eq!(reader.current().len(), 6);
    }

    #[test]
    fn forced_quarantine_rejects_without_publishing() {
        let mut publisher = SnapshotPublisher::new(snap_of(2));
        let candidate = snap_of(4);
        assert_eq!(publisher.quarantine(&candidate), 1);
        assert_eq!(publisher.epoch(), 0);
        let health = publisher.health();
        assert_eq!(health.rejected, 1);
        assert!(matches!(
            publisher.quarantine_log().latest().unwrap().cause,
            QuarantineCause::Forced
        ));
        // The candidate itself was never consumed and can publish later.
        assert_eq!(publisher.publish(candidate).unwrap(), 1);
    }

    #[test]
    fn quarantine_log_is_bounded_and_counts_evictions() {
        let mut publisher = SnapshotPublisher::new(snap_of(1));
        let candidate = snap_of(2);
        for _ in 0..(QUARANTINE_LOG_CAP + 5) {
            publisher.quarantine(&candidate);
        }
        let log = publisher.quarantine_log();
        assert_eq!(log.len(), QUARANTINE_LOG_CAP);
        assert_eq!(log.evicted(), 5);
        assert!(!log.is_empty());
        // Sequence numbers survive eviction: newest is the total count.
        assert_eq!(log.latest().unwrap().seq, (QUARANTINE_LOG_CAP + 5) as u64);
        let seqs: Vec<u64> = log.iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "ordered log");
        assert_eq!(publisher.health().rejected, (QUARANTINE_LOG_CAP + 5) as u64);
    }

    #[test]
    fn dropped_publisher_leaves_readers_serving_cached() {
        let publisher = SnapshotPublisher::new(snap_of(4));
        let mut reader = publisher.subscribe();
        drop(publisher);
        assert_eq!(reader.try_refresh(), Err(ReaderError::PublisherGone));
        // The ergonomic form degrades to "nothing newer".
        assert!(!reader.refresh());
        // The cached snapshot still serves, forever.
        assert_eq!(reader.current().len(), 4);
        assert_eq!(reader.cached().count(&Rect::unit()), 4);
        assert_eq!(
            ReaderError::PublisherGone.to_string(),
            "publisher dropped; serving the cached snapshot"
        );
    }

    #[test]
    fn degraded_answers_tick_the_shared_counter() {
        let publisher = SnapshotPublisher::new(snap_of(64));
        let mut reader = publisher.subscribe();
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();

        // Unbounded budget: complete, no degradation recorded.
        let outcome = reader.range_bounded(
            &Rect::unit(),
            &CostBudget::unbounded(),
            &mut scratch,
            &mut out,
        );
        assert!(outcome.is_complete());
        assert_eq!(out.len(), 64);
        assert_eq!(publisher.health().degraded_answers, 0);

        // A one-leaf budget on a 64-point, capacity-2 tree must degrade.
        let tiny = CostBudget::new(1, u64::MAX);
        let outcome = reader.range_bounded(&Rect::unit(), &tiny, &mut scratch, &mut out);
        assert!(!outcome.is_complete());
        assert_eq!(publisher.health().degraded_answers, 1);

        let (_, outcome) = reader.count_bounded(&Rect::unit(), &tiny, &mut scratch);
        assert!(!outcome.is_complete());
        let outcome = reader.knn_bounded(
            &Point2::new(0.5, 0.5),
            8,
            &CostBudget::new(u64::MAX, 2),
            &mut scratch,
            &mut out,
        );
        assert!(!outcome.is_complete());
        assert_eq!(publisher.health().degraded_answers, 3);
    }

    #[test]
    fn freeze_and_publish_round_trips() {
        let mut publisher = SnapshotPublisher::new(snap_of(3));
        let mut reader = publisher.subscribe();
        let tree = PrQuadtree::build(
            Rect::unit(),
            4,
            (0..10).map(|i| Point2::new((i as f64 + 0.5) / 10.0, 0.25)),
        )
        .unwrap();
        assert_eq!(publisher.freeze_and_publish(&tree).unwrap(), 1);
        assert_eq!(publisher.epoch(), 1);
        let snap = reader.current();
        assert_eq!(snap.len(), 10);
        assert_eq!(snap.count(&Rect::from_bounds(0.0, 0.0, 1.0, 0.5)), 10);
        let health = publisher.health();
        assert_eq!(health.last_good_epoch, 1);
        assert_eq!(health.rejected, 0);
        assert_eq!(health.degraded_answers, 0);
        assert!(publisher.quarantine_log().is_empty());
    }

    #[test]
    fn readers_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SnapshotReader>();
        assert_send::<SnapshotPublisher>();
    }
}
