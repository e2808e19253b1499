//! Borrowed, allocation-free views over a command history.
//!
//! The recovery engine's hot path stores its `{ĉ_j}` window in a flat
//! ring buffer; [`HistoryView`] is the borrow type forecasters consume
//! without ever materialising a `Vec<Vec<f64>>`. A view is at most two
//! contiguous runs of rows (the ring's wrap-around split), exposed as
//! `row(i)` access and oldest→newest iteration.
//!
//! [`ForecastScratch`] is the caller-owned workspace
//! [`crate::Forecaster::forecast_into`] implementations borrow for
//! intermediate rows (VAR's differenced regressors, VARMA's rebuilt
//! residuals). It grows to a per-forecaster high-water mark on first use
//! and never allocates again, which is what makes the steady-state tick
//! allocation-free.

/// A borrowed window of `len × dims` commands, oldest first, stored as
/// up to two contiguous row runs (`head` then `tail` — the natural shape
/// of a wrapped ring buffer). Constructing one never copies or
/// allocates.
#[derive(Debug, Clone, Copy)]
pub struct HistoryView<'a> {
    /// Older run, `head.len() % dims == 0`.
    head: &'a [f64],
    /// Newer run, `tail.len() % dims == 0`.
    tail: &'a [f64],
    dims: usize,
}

impl<'a> HistoryView<'a> {
    /// Builds a view from the two contiguous runs of a wrapped ring
    /// (`head` holds the older rows). Either run may be empty.
    ///
    /// # Panics
    /// Panics if `dims == 0` or either run is not a whole number of rows.
    pub fn new(head: &'a [f64], tail: &'a [f64], dims: usize) -> Self {
        assert!(dims >= 1, "history view: dims must be ≥ 1");
        assert_eq!(head.len() % dims, 0, "history view: ragged head run");
        assert_eq!(tail.len() % dims, 0, "history view: ragged tail run");
        Self { head, tail, dims }
    }

    /// Builds a view over one contiguous row-major block.
    ///
    /// # Panics
    /// Panics if `dims == 0` or `data` is not a whole number of rows.
    pub fn contiguous(data: &'a [f64], dims: usize) -> Self {
        Self::new(data, &[], dims)
    }

    /// Number of rows (commands).
    #[inline]
    pub fn len(&self) -> usize {
        (self.head.len() + self.tail.len()) / self.dims
    }

    /// True when the view holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head.is_empty() && self.tail.is_empty()
    }

    /// Command dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Row `i` (0 = oldest).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f64] {
        let head_rows = self.head.len() / self.dims;
        if i < head_rows {
            &self.head[i * self.dims..(i + 1) * self.dims]
        } else {
            let j = i - head_rows;
            &self.tail[j * self.dims..(j + 1) * self.dims]
        }
    }

    /// The newest row.
    ///
    /// # Panics
    /// Panics if the view is empty.
    #[inline]
    pub fn back(&self) -> &'a [f64] {
        assert!(!self.is_empty(), "history view: empty");
        self.row(self.len() - 1)
    }

    /// The view's two underlying contiguous runs, older rows first.
    /// Either slice may be empty; together they hold exactly
    /// `len() × dims()` values. Lets bulk consumers (the batching
    /// gather) copy a window as at most two `memcpy`s instead of a
    /// per-row loop.
    #[inline]
    pub fn runs(&self) -> (&'a [f64], &'a [f64]) {
        (self.head, self.tail)
    }

    /// Iterates rows oldest → newest without allocating.
    pub fn iter(&self) -> impl Iterator<Item = &'a [f64]> {
        self.head
            .chunks_exact(self.dims)
            .chain(self.tail.chunks_exact(self.dims))
    }

    /// Sub-view of rows `[start, end)`, preserving order.
    ///
    /// # Panics
    /// Panics if the range is reversed or out of bounds.
    pub fn range(&self, start: usize, end: usize) -> HistoryView<'a> {
        assert!(
            start <= end && end <= self.len(),
            "history view: bad range {start}..{end} of {}",
            self.len()
        );
        let head_rows = self.head.len() / self.dims;
        let (head, tail) = if end <= head_rows {
            (&self.head[start * self.dims..end * self.dims], &[][..])
        } else if start >= head_rows {
            (
                &[][..],
                &self.tail[(start - head_rows) * self.dims..(end - head_rows) * self.dims],
            )
        } else {
            (
                &self.head[start * self.dims..],
                &self.tail[..(end - head_rows) * self.dims],
            )
        };
        HistoryView {
            head,
            tail,
            dims: self.dims,
        }
    }

    /// The last `n` rows.
    ///
    /// # Panics
    /// Panics if `n > len()`.
    pub fn suffix(&self, n: usize) -> HistoryView<'a> {
        self.range(self.len() - n, self.len())
    }

    /// Materialises the rows as owned vectors, for consumers that need
    /// them (seq2seq's network input, engine snapshots). Allocates.
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.iter().map(<[f64]>::to_vec).collect()
    }
}

/// The row accessor the expensive families' kernels are written
/// against: rows oldest first, member `m`'s coordinate `k` of row `i`
/// at `row(i)[k * width() + m]`. A [`HistoryView`] is width 1 (the
/// engine's ring) and a [`SlotRows`] lane is width = members, so one
/// kernel body generic over it is both the scalar and the slot-major
/// path, with every member's f64 operations in the same order.
pub(crate) trait LaneRows {
    /// Members per coordinate.
    fn width(&self) -> usize;
    /// Row `i`: `dims × width()` values.
    fn row(&self, i: usize) -> &[f64];
}

impl LaneRows for HistoryView<'_> {
    fn width(&self) -> usize {
        1
    }

    fn row(&self, i: usize) -> &[f64] {
        HistoryView::row(self, i)
    }
}

/// A slot-major lane, `slots[(row * dims + dim) * members + m]` (the
/// layout [`crate::Forecaster::forecast_batch_slots`] receives).
pub(crate) struct SlotRows<'a> {
    slots: &'a [f64],
    row_len: usize,
    members: usize,
}

impl<'a> SlotRows<'a> {
    /// Panics unless `slots` holds `rows × dims × members` values.
    pub(crate) fn new(slots: &'a [f64], rows: usize, dims: usize, members: usize) -> Self {
        assert_eq!(slots.len(), rows * dims * members, "slot batch shape");
        Self {
            slots,
            row_len: dims * members,
            members,
        }
    }
}

impl LaneRows for SlotRows<'_> {
    fn width(&self) -> usize {
        self.members
    }

    fn row(&self, i: usize) -> &[f64] {
        &self.slots[i * self.row_len..(i + 1) * self.row_len]
    }
}

/// Caller-owned scratch space for [`crate::Forecaster::forecast_into`].
///
/// Holds two independent growable `f64` buffers (VARMA needs its rebuilt
/// residual rows and a stage-1 prediction row live at once). Buffers
/// keep their high-water capacity across calls, so after the first
/// forecast of a given shape no further allocation ever happens.
/// Contents are unspecified between calls — implementations must fully
/// overwrite what they use. The expensive families' kernels size these
/// buffers to the call's *width* (Kalman-CV's six filter-state lanes
/// from [`ForecastScratch::buf`], VAR's accumulator and diff rows from
/// [`ForecastScratch::pair`]), so the high-water mark tracks the
/// widest lane ever run — still zero allocations per steady pass.
#[derive(Debug, Default, Clone)]
pub struct ForecastScratch {
    a: Vec<f64>,
    b: Vec<f64>,
}

impl ForecastScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrows the primary buffer at exactly `len` elements.
    pub fn buf(&mut self, len: usize) -> &mut [f64] {
        if self.a.len() < len {
            self.a.resize(len, 0.0);
        }
        &mut self.a[..len]
    }

    /// Borrows both buffers at once (`a_len` primary, `b_len` secondary).
    pub fn pair(&mut self, a_len: usize, b_len: usize) -> (&mut [f64], &mut [f64]) {
        if self.a.len() < a_len {
            self.a.resize(a_len, 0.0);
        }
        if self.b.len() < b_len {
            self.b.resize(b_len, 0.0);
        }
        (&mut self.a[..a_len], &mut self.b[..b_len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(rows: &[[f64; 2]]) -> Vec<f64> {
        rows.iter().flatten().copied().collect()
    }

    #[test]
    fn contiguous_rows_and_iteration() {
        let data = flat(&[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]);
        let v = HistoryView::contiguous(&data, 2);
        assert_eq!(v.len(), 3);
        assert_eq!(v.dims(), 2);
        assert_eq!(v.row(0), &[1.0, 2.0]);
        assert_eq!(v.row(2), &[5.0, 6.0]);
        assert_eq!(v.back(), &[5.0, 6.0]);
        let rows: Vec<&[f64]> = v.iter().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0], &[5.0, 6.0]]);
    }

    #[test]
    fn split_view_matches_contiguous() {
        let data = flat(&[[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]]);
        let whole = HistoryView::contiguous(&data, 2);
        // Every split point must present identical rows.
        for cut in 0..=4 {
            let v = HistoryView::new(&data[..cut * 2], &data[cut * 2..], 2);
            assert_eq!(v.len(), 4);
            for i in 0..4 {
                assert_eq!(v.row(i), whole.row(i), "cut {cut}, row {i}");
            }
            assert_eq!(v.to_rows(), whole.to_rows());
        }
    }

    #[test]
    fn range_and_suffix_across_the_seam() {
        let data = flat(&[[0.0, 0.1], [1.0, 1.1], [2.0, 2.1], [3.0, 3.1], [4.0, 4.1]]);
        for cut in 0..=5 {
            let v = HistoryView::new(&data[..cut * 2], &data[cut * 2..], 2);
            for start in 0..=5 {
                for end in start..=5 {
                    let sub = v.range(start, end);
                    assert_eq!(sub.len(), end - start);
                    for i in 0..sub.len() {
                        assert_eq!(sub.row(i), v.row(start + i), "cut {cut} {start}..{end}@{i}");
                    }
                }
            }
            assert_eq!(v.suffix(2).row(0), v.row(3));
        }
    }

    #[test]
    fn scratch_buffers_are_independent_and_sticky() {
        let mut s = ForecastScratch::new();
        {
            let (a, b) = s.pair(4, 2);
            a.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
            b.copy_from_slice(&[9.0, 9.0]);
            assert_eq!(a.len(), 4);
            assert_eq!(b.len(), 2);
        }
        // Smaller requests reuse the same storage, no shrink.
        assert_eq!(s.buf(2).len(), 2);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_runs() {
        let data = [1.0, 2.0, 3.0];
        let _ = HistoryView::new(&data, &[], 2);
    }
}
