//! Morsel dispatch: who processes which slice of the input.
//!
//! The input index space is split into one contiguous range per thread
//! (like the paper's static partitioning), but each range is consumed
//! through an atomic cursor in small *morsels*. A thread drains its own
//! range first — preserving the locality the static scheme gets for free —
//! and then, under [`Scheduling::WorkSteal`], takes morsels from the range
//! with the most work left, so a skewed or latch-heavy region never
//! leaves the other cores idle at the tail.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How morsels are handed to threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduling {
    /// One contiguous chunk per thread, no redistribution — the paper's
    /// §5.1 setup, kept as the comparison baseline.
    StaticChunk,
    /// Per-thread ranges with morsel stealing from the fullest victim —
    /// the default.
    #[default]
    WorkSteal,
}

/// Cache-line-isolated cursor over one contiguous index range.
#[repr(align(128))]
struct RangeCursor {
    next: AtomicUsize,
    end: usize,
}

/// Hands out morsels of the index space `0..len`.
pub struct Dispatcher {
    ranges: Vec<RangeCursor>,
    morsel: usize,
    steal: bool,
}

impl Dispatcher {
    /// Plan dispatch of `len` items to `threads` workers in `morsel`-sized
    /// units under `scheduling`.
    pub fn new(len: usize, threads: usize, morsel: usize, scheduling: Scheduling) -> Dispatcher {
        let threads = threads.max(1);
        let (steal, morsel) = match scheduling {
            // One morsel == the whole per-thread range.
            Scheduling::StaticChunk => (false, usize::MAX),
            Scheduling::WorkSteal => (true, morsel.max(1)),
        };
        let per = len.div_ceil(threads).max(1);
        let ranges = (0..threads)
            .map(|i| {
                let lo = (i * per).min(len);
                let hi = ((i + 1) * per).min(len);
                RangeCursor { next: AtomicUsize::new(lo), end: hi }
            })
            .collect();
        Dispatcher { ranges, morsel, steal }
    }

    /// Next morsel for thread `tid`, with a flag marking stolen morsels.
    /// Returns `None` once every range is exhausted.
    pub fn next_morsel(&self, tid: usize) -> Option<(Range<usize>, bool)> {
        let parts = self.ranges.len();
        let home = tid % parts;
        if let Some(r) = self.take(home) {
            return Some((r, false));
        }
        if !self.steal {
            return None;
        }
        loop {
            // Steal from the victim with the most remaining work, judged
            // by the counts captured during this scan (a re-read could see
            // the chosen victim drained and give up while other ranges
            // still hold morsels). A failed take raced with another
            // stealer; rescan — progress is monotonic, so this terminates.
            let victim = (0..parts)
                .filter(|&i| i != home)
                .map(|i| (self.remaining(i), i))
                .max()
                .filter(|&(rem, _)| rem > 0)
                .map(|(_, i)| i)?;
            if let Some(r) = self.take(victim) {
                return Some((r, true));
            }
        }
    }

    /// Total items not yet handed out (approximate under concurrency).
    pub fn remaining_total(&self) -> usize {
        (0..self.ranges.len()).map(|i| self.remaining(i)).sum()
    }

    fn remaining(&self, part: usize) -> usize {
        let rc = &self.ranges[part];
        rc.end.saturating_sub(rc.next.load(Ordering::Relaxed))
    }

    fn take(&self, part: usize) -> Option<Range<usize>> {
        let rc = &self.ranges[part];
        let mut cur = rc.next.load(Ordering::Relaxed);
        loop {
            if cur >= rc.end {
                return None;
            }
            let hi = cur.saturating_add(self.morsel).min(rc.end);
            match rc.next.compare_exchange_weak(cur, hi, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return Some(cur..hi),
                Err(observed) => cur = observed,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn drain_all(d: &Dispatcher, tid: usize) -> Vec<(Range<usize>, bool)> {
        let mut out = Vec::new();
        while let Some(m) = d.next_morsel(tid) {
            out.push(m);
        }
        out
    }

    #[test]
    fn covers_every_index_exactly_once() {
        for scheduling in [Scheduling::StaticChunk, Scheduling::WorkSteal] {
            let d = Dispatcher::new(1000, 4, 64, scheduling);
            let mut seen = BTreeSet::new();
            for tid in 0..4 {
                for (r, _) in drain_all(&d, tid) {
                    for i in r {
                        assert!(seen.insert(i), "{scheduling:?}: index {i} duplicated");
                    }
                }
            }
            assert_eq!(seen.len(), 1000, "{scheduling:?}");
        }
    }

    #[test]
    fn static_chunk_is_one_morsel_per_thread() {
        let d = Dispatcher::new(1000, 4, 64, Scheduling::StaticChunk);
        let got = drain_all(&d, 2);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 500..750);
        assert!(!got[0].1);
    }

    #[test]
    fn worksteal_marks_foreign_morsels_stolen() {
        let d = Dispatcher::new(256, 2, 64, Scheduling::WorkSteal);
        let all = drain_all(&d, 0);
        assert_eq!(all.iter().filter(|(_, stolen)| !stolen).count(), 2, "own range: 2 morsels");
        assert_eq!(all.iter().filter(|(_, stolen)| *stolen).count(), 2, "stolen: 2 morsels");
    }

    #[test]
    fn static_chunk_never_redistributes() {
        let d = Dispatcher::new(100, 4, 8, Scheduling::StaticChunk);
        assert_eq!(drain_all(&d, 0).len(), 1);
        assert!(d.next_morsel(0).is_none(), "thread 0 must idle, not steal");
        assert!(d.remaining_total() > 0);
    }

    #[test]
    fn concurrent_consumption_partitions_the_space() {
        let d = Dispatcher::new(100_000, 8, 128, Scheduling::WorkSteal);
        let counts: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|tid| {
                    let d = &d;
                    s.spawn(move || {
                        let mut n = 0;
                        while let Some((r, _)) = d.next_morsel(tid) {
                            n += r.len();
                        }
                        n
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(counts.iter().sum::<usize>(), 100_000);
        assert_eq!(d.remaining_total(), 0);
    }

    #[test]
    fn empty_input_yields_nothing() {
        let d = Dispatcher::new(0, 4, 64, Scheduling::WorkSteal);
        assert!(d.next_morsel(0).is_none());
    }

    #[test]
    fn more_threads_than_items() {
        let d = Dispatcher::new(3, 16, 64, Scheduling::WorkSteal);
        let total: usize = (0..16).flat_map(|tid| drain_all(&d, tid)).map(|(r, _)| r.len()).sum();
        assert_eq!(total, 3);
    }
}
