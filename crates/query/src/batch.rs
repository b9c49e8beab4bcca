//! Morton-batched query execution (DESIGN.md §15).
//!
//! Serving a batch of queries one by one walks the Morton-packed slabs
//! in whatever order the caller happened to submit, so consecutive
//! queries land in unrelated slab regions and every traversal starts
//! cold. The batch forms here sort the query set by the Morton code of
//! each query's anchor (a range's low corner, a k-NN's target) before
//! executing, so consecutive traversals touch neighboring leaf runs and
//! the slab walk stays cache-sequential — while one [`QueryScratch`]
//! and one answer arena are reused across the whole batch.
//!
//! # The permutation contract
//!
//! Reordering is invisible to the caller. Each answer is computed by
//! the *same* serving form the serial path uses (`range_into`,
//! `count_with`, `knn_into`), so each individual answer is bit-identical
//! to a serial call — canonical order included — and answers are
//! addressed by the caller's original query index: execution order is
//! an internal permutation, recorded in the scratch and applied in
//! reverse when results are written. `BatchAnswers::answer(i)` is the
//! answer to `queries[i]`, always.
//!
//! Allocation behaves like the serial forms: nothing is allocated once
//! the scratch and answer buffers have warmed to the workload's
//! high-water marks (the sort is an in-place unstable sort; the
//! differential suite and the Q2 lint rule pin this).

use popan_geom::morton;
use popan_geom::{Point2, Rect};
use popan_spatial::QueryScratch;

use crate::snapshot::Snapshot;

/// Reusable state for batch execution: the per-query scratch, the
/// execution-order permutation, and a staging buffer for one answer.
/// Contents are meaningless between calls — one scratch can serve any
/// sequence of batches against any snapshots.
#[derive(Debug, Default)]
pub struct BatchScratch {
    query: QueryScratch,
    /// `(morton key of anchor, original index)` — sorted to give the
    /// execution order.
    order: Vec<(u64, u32)>,
    /// One query's answer, staged before appending to the arena.
    staged: Vec<Point2>,
}

impl BatchScratch {
    /// Creates an empty scratch (buffers warm up on first use).
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }
}

/// Answers for one batch, in the caller's original query order.
///
/// Points live in one flat arena in *execution* order; the span table,
/// indexed by original query position, is the permutation index that
/// maps each query to its slice. The arena is reused across batches.
#[derive(Debug, Default, Clone)]
pub struct BatchAnswers {
    points: Vec<Point2>,
    spans: Vec<(u32, u32)>,
}

impl BatchAnswers {
    /// Creates an empty answer set.
    pub fn new() -> BatchAnswers {
        BatchAnswers::default()
    }

    /// Number of answers (one per query in the batch).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The answer to the `i`-th query *as originally submitted* —
    /// bit-identical, canonical order included, to the corresponding
    /// serial serving form.
    pub fn answer(&self, i: usize) -> &[Point2] {
        let (start, len) = self.spans[i];
        &self.points[start as usize..start as usize + len as usize]
    }

    /// All answers in original query order.
    pub fn iter(&self) -> impl Iterator<Item = &[Point2]> + '_ {
        (0..self.spans.len()).map(|i| self.answer(i))
    }

    /// Total points across all answers.
    pub fn total_points(&self) -> usize {
        self.points.len()
    }

    fn reset(&mut self, queries: usize) {
        self.points.clear();
        self.spans.clear();
        self.spans.resize(queries, (0, 0));
    }

    fn push_staged(&mut self, i: usize, staged: &[Point2]) {
        let start = self.points.len() as u32;
        self.points.extend_from_slice(staged);
        self.spans[i] = (start, staged.len() as u32);
    }
}

/// The Morton key a query is scheduled by: its anchor point quantized
/// over the snapshot region. Anchors outside the region saturate to the
/// boundary cells, which keeps the schedule monotone without branching;
/// the key orders execution only and never affects any answer.
fn anchor_key(region: &Rect, x: f64, y: f64) -> u64 {
    morton::morton_of_point_saturating(&Point2 { x, y }, region)
}

/// Fills `scratch.order` with the Morton execution schedule.
fn schedule(scratch: &mut BatchScratch, keys: impl Iterator<Item = u64>) {
    scratch.order.clear();
    scratch
        .order
        .extend(keys.enumerate().map(|(i, k)| (k, i as u32)));
    scratch.order.sort_unstable();
}

impl Snapshot {
    /// Batch range query: answers every rectangle in `queries`,
    /// executing in Morton order of the rectangles' low corners.
    /// `out.answer(i)` is bit-identical (canonical order included) to
    /// `range_into(&queries[i], ..)`.
    pub fn range_batch_into(
        &self,
        queries: &[Rect],
        scratch: &mut BatchScratch,
        out: &mut BatchAnswers,
    ) {
        let region = self.region();
        schedule(
            scratch,
            queries
                .iter()
                .map(|q| anchor_key(&region, q.x().lo(), q.y().lo())),
        );
        out.reset(queries.len());
        for k in 0..scratch.order.len() {
            let i = scratch.order[k].1 as usize;
            let mut staged = std::mem::take(&mut scratch.staged);
            self.range_into(&queries[i], &mut scratch.query, &mut staged);
            out.push_staged(i, &staged);
            scratch.staged = staged;
        }
    }

    /// Batch count: `out[i]` equals `count_with(&queries[i], ..)`, with
    /// execution Morton-ordered like [`Snapshot::range_batch_into`].
    pub fn count_batch_with(
        &self,
        queries: &[Rect],
        scratch: &mut BatchScratch,
        out: &mut Vec<usize>,
    ) {
        let region = self.region();
        schedule(
            scratch,
            queries
                .iter()
                .map(|q| anchor_key(&region, q.x().lo(), q.y().lo())),
        );
        out.clear();
        out.resize(queries.len(), 0);
        for k in 0..scratch.order.len() {
            let i = scratch.order[k].1 as usize;
            out[i] = self.count_with(&queries[i], &mut scratch.query);
        }
    }

    /// Batch k-NN: for each target, its `k` nearest stored points in
    /// the canonical k-NN order; execution is Morton-ordered by target.
    /// `out.answer(i)` is bit-identical to `knn_into(&targets[i], k, ..)`.
    pub fn knn_batch_into(
        &self,
        targets: &[Point2],
        k: usize,
        scratch: &mut BatchScratch,
        out: &mut BatchAnswers,
    ) {
        let region = self.region();
        schedule(
            scratch,
            targets.iter().map(|t| anchor_key(&region, t.x, t.y)),
        );
        out.reset(targets.len());
        for j in 0..scratch.order.len() {
            let i = scratch.order[j].1 as usize;
            let mut staged = std::mem::take(&mut scratch.staged);
            self.knn_into(&targets[i], k, &mut scratch.query, &mut staged);
            out.push_staged(i, &staged);
            scratch.staged = staged;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts() -> Vec<Point2> {
        (0..500)
            .map(|i| {
                Point2::new(
                    (i as f64 * 0.618_033_9) % 1.0,
                    (i as f64 * 0.414_213_6) % 1.0,
                )
            })
            .collect()
    }

    fn queries() -> Vec<Rect> {
        (0..64)
            .map(|i| {
                let x = (i as f64 * 0.31) % 0.8;
                let y = (i as f64 * 0.47) % 0.8;
                Rect::from_bounds(x, y, x + 0.17, y + 0.13)
            })
            .collect()
    }

    #[test]
    fn batch_answers_match_serial_in_original_order() {
        let snap = Snapshot::from_points(1, Rect::unit(), 4, pts()).unwrap();
        let qs = queries();
        let mut scratch = BatchScratch::new();
        let mut out = BatchAnswers::new();
        snap.range_batch_into(&qs, &mut scratch, &mut out);
        assert_eq!(out.len(), qs.len());

        let mut serial_scratch = QueryScratch::default();
        let mut serial = Vec::new();
        for (i, q) in qs.iter().enumerate() {
            snap.range_into(q, &mut serial_scratch, &mut serial);
            assert_eq!(out.answer(i), serial.as_slice(), "query {i}");
        }
    }

    #[test]
    fn count_batch_matches_serial() {
        let snap = Snapshot::from_points(1, Rect::unit(), 4, pts()).unwrap();
        let qs = queries();
        let mut scratch = BatchScratch::new();
        let mut counts = Vec::new();
        snap.count_batch_with(&qs, &mut scratch, &mut counts);
        let mut serial_scratch = QueryScratch::default();
        for (i, q) in qs.iter().enumerate() {
            assert_eq!(
                counts[i],
                snap.count_with(q, &mut serial_scratch),
                "query {i}"
            );
        }
    }

    #[test]
    fn knn_batch_matches_serial() {
        let snap = Snapshot::from_points(1, Rect::unit(), 4, pts()).unwrap();
        let targets: Vec<Point2> = (0..48)
            .map(|i| Point2::new((i as f64 * 0.71) % 1.0, (i as f64 * 0.53) % 1.0))
            .collect();
        let mut scratch = BatchScratch::new();
        let mut out = BatchAnswers::new();
        snap.knn_batch_into(&targets, 5, &mut scratch, &mut out);
        let mut serial_scratch = QueryScratch::default();
        let mut serial = Vec::new();
        for (i, t) in targets.iter().enumerate() {
            snap.knn_into(t, 5, &mut serial_scratch, &mut serial);
            assert_eq!(out.answer(i), serial.as_slice(), "target {i}");
        }
    }

    #[test]
    fn empty_batch_and_scratch_reuse() {
        let snap = Snapshot::from_points(1, Rect::unit(), 4, pts()).unwrap();
        let mut scratch = BatchScratch::new();
        let mut out = BatchAnswers::new();
        snap.range_batch_into(&[], &mut scratch, &mut out);
        assert!(out.is_empty());
        assert_eq!(out.total_points(), 0);
        // Same scratch serves a real batch afterwards.
        let qs = queries();
        snap.range_batch_into(&qs, &mut scratch, &mut out);
        assert_eq!(out.len(), qs.len());
        assert!(out.total_points() > 0);
        assert_eq!(out.iter().count(), qs.len());
    }
}
