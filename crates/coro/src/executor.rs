//! The interleaving ring executor and its yield primitives.
//!
//! This is AMAC's circular buffer re-expressed over Rust's compiler-built
//! coroutines: each lookup is a future whose suspension points sit right
//! after its prefetch instructions, and the executor is a rolling-counter
//! ring that polls one slot per turn. The scheduling is *identical* to
//! `amac::engine::run_amac` — including the merged terminal+initial stage:
//! a freshly refilled slot is polled immediately, so its first prefetch
//! issues in the same turn the previous lookup finished.
//!
//! No wakers, no reactor, no allocation per lookup: futures of one
//! concrete type live in a fixed ring of `Option<Fut>` slots and are
//! constructed, polled, and dropped in place.

use core::future::Future;
use core::pin::Pin;
use core::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

/// A future that is `Pending` exactly once and `Ready` on its second poll.
///
/// Await this right after issuing a prefetch: the suspension hands the
/// thread to the other in-flight lookups while the prefetched line is in
/// transit — the coroutine equivalent of AMAC's save-state-and-rotate.
#[derive(Debug, Default)]
pub struct YieldPoint {
    polled: bool,
}

impl Future for YieldPoint {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.polled {
            Poll::Ready(())
        } else {
            self.polled = true;
            Poll::Pending
        }
    }
}

/// Suspend the current lookup for one ring rotation.
#[inline]
pub fn yield_now() -> YieldPoint {
    YieldPoint::default()
}

/// Prefetch the cache line holding `ptr`, then suspend for one rotation —
/// the fused "issue the access, switch lookups" step of Listing 1.
#[inline]
pub async fn prefetch_yield<T>(ptr: *const T) {
    amac_mem::prefetch::prefetch_read(ptr);
    yield_now().await;
}

// The cooperative scheduler never parks, so wakers are inert.
const NOOP_VTABLE: RawWakerVTable =
    RawWakerVTable::new(|_| RawWaker::new(core::ptr::null(), &NOOP_VTABLE), |_| {}, |_| {}, |_| {});

fn noop_waker() -> Waker {
    // SAFETY: every vtable entry is a no-op over a null pointer, which
    // trivially satisfies the RawWaker contract.
    unsafe { Waker::from_raw(RawWaker::new(core::ptr::null(), &NOOP_VTABLE)) }
}

/// Counters for one interleaved run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterleaveStats {
    /// Lookups completed.
    pub completed: u64,
    /// Future polls (resumptions), including each lookup's first poll.
    pub polls: u64,
    /// Size of one suspended lookup's state in bytes
    /// (`size_of::<Fut>()`) — the §6 "state maintenance and space
    /// overhead" the paper worries about, measurable here.
    pub future_bytes: usize,
    /// Ring width used (the paper's `M`).
    pub width: usize,
}

/// One ring slot: the live future (if any) plus the input index it serves
/// (AMAC's `rid` field, used to materialize results in input order).
struct Slot<Fut> {
    fut: Option<Fut>,
    idx: usize,
}

/// Run one coroutine per input, keeping up to `width` of them in flight.
///
/// `make(idx, input)` constructs the lookup coroutine; `sink(idx, out)`
/// receives each result as it completes (out of input order — pass the
/// index through, exactly like the paper preserves row ids through the
/// `rid` state field).
///
/// The schedule is AMAC's: a rolling counter walks the ring; `Pending`
/// slots are skipped past, and a completing slot is refilled from the
/// input stream and given its first poll immediately.
pub fn run_interleaved<I, T, F, Fut, S>(
    width: usize,
    inputs: &[I],
    mut make: F,
    mut sink: S,
) -> InterleaveStats
where
    I: Copy,
    F: FnMut(usize, I) -> Fut,
    Fut: Future<Output = T>,
    S: FnMut(usize, T),
{
    let width = width.max(1).min(inputs.len().max(1));
    let mut stats = InterleaveStats {
        completed: 0,
        polls: 0,
        future_bytes: core::mem::size_of::<Fut>(),
        width,
    };
    if inputs.is_empty() {
        return stats;
    }

    let waker = noop_waker();
    let mut cx = Context::from_waker(&waker);

    // The ring: fixed-size, never reallocated, so slot addresses are
    // stable and in-place pinning below is sound.
    let mut ring: Vec<Slot<Fut>> = Vec::with_capacity(width);
    let mut next = 0usize;
    let mut live = 0usize;

    // Prologue: prime up to `width` lookups. Each gets its first poll at
    // its first ring turn below (the ring starts full, so no turn is
    // wasted).
    while next < inputs.len() && ring.len() < width {
        ring.push(Slot { fut: Some(make(next, inputs[next])), idx: next });
        next += 1;
        live += 1;
    }

    // Main loop: rolling counter over the ring (Listing 1's `k`).
    let mut k = 0usize;
    while live > 0 {
        let slot = &mut ring[k];
        // Refill loop: a Ready slot immediately starts (and first-polls)
        // the next lookup — the merged terminal+initial stage.
        while let Some(fut) = slot.fut.as_mut() {
            stats.polls += 1;
            // SAFETY: the future lives in a ring slot that is neither
            // moved nor reallocated between its first poll and its drop;
            // we only drop it in place (`slot.fut = None` / reassignment)
            // after completion.
            let pinned = unsafe { Pin::new_unchecked(fut) };
            match pinned.poll(&mut cx) {
                Poll::Pending => break,
                Poll::Ready(out) => {
                    stats.completed += 1;
                    sink(slot.idx, out);
                    if next < inputs.len() {
                        slot.fut = Some(make(next, inputs[next]));
                        slot.idx = next;
                        next += 1;
                        // Loop again: give the fresh lookup its stage-0
                        // poll (hash + first prefetch) right now.
                    } else {
                        slot.fut = None;
                        live -= 1;
                        break;
                    }
                }
            }
        }
        // Rolling counter, not modulo — same micro-optimization as
        // Listing 1.
        k += 1;
        if k == ring.len() {
            k = 0;
        }
    }
    stats
}

/// [`run_interleaved`], materializing results in input order.
pub fn run_interleaved_collect<I, T, F, Fut>(
    width: usize,
    inputs: &[I],
    make: F,
) -> (Vec<T>, InterleaveStats)
where
    I: Copy,
    T: Default + Clone,
    F: FnMut(usize, I) -> Fut,
    Fut: Future<Output = T>,
{
    let mut out = vec![T::default(); inputs.len()];
    let stats = run_interleaved(width, inputs, make, |idx, v| out[idx] = v);
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::cell::RefCell;

    #[test]
    fn yield_point_is_pending_exactly_once() {
        let waker = noop_waker();
        let mut cx = Context::from_waker(&waker);
        let mut y = yield_now();
        let mut p = unsafe { Pin::new_unchecked(&mut y) };
        assert_eq!(p.as_mut().poll(&mut cx), Poll::Pending);
        assert_eq!(p.as_mut().poll(&mut cx), Poll::Ready(()));
    }

    #[test]
    fn results_arrive_for_every_input_in_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let (out, stats) = run_interleaved_collect(8, &inputs, |_, x| async move {
            yield_now().await;
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(stats.completed, 100);
        assert_eq!(stats.width, 8);
        // Two polls per lookup: one reaching the yield, one resuming.
        assert_eq!(stats.polls, 200);
    }

    #[test]
    fn execution_actually_interleaves() {
        // Each coroutine logs its id at every resumption; with width 4 the
        // log must mix ids rather than run each to completion first.
        let log = RefCell::new(Vec::new());
        let inputs: Vec<u64> = (0..4).collect();
        run_interleaved(
            4,
            &inputs,
            |_, id| {
                let log = &log;
                async move {
                    for _ in 0..3 {
                        log.borrow_mut().push(id);
                        yield_now().await;
                    }
                }
            },
            |_, ()| {},
        );
        let log = log.into_inner();
        // Sequential execution would be [0,0,0,1,1,1,...]; interleaved is
        // round-robin [0,1,2,3,0,1,2,3,...].
        assert_eq!(log[..4], [0, 1, 2, 3], "first rotation visits every slot");
        assert_eq!(log[4..8], [0, 1, 2, 3], "second rotation revisits in ring order");
    }

    #[test]
    fn width_one_is_sequential() {
        let log = RefCell::new(Vec::new());
        let inputs: Vec<u64> = (0..3).collect();
        run_interleaved(
            1,
            &inputs,
            |_, id| {
                let log = &log;
                async move {
                    log.borrow_mut().push((id, 'a'));
                    yield_now().await;
                    log.borrow_mut().push((id, 'b'));
                }
            },
            |_, ()| {},
        );
        assert_eq!(
            log.into_inner(),
            vec![(0, 'a'), (0, 'b'), (1, 'a'), (1, 'b'), (2, 'a'), (2, 'b')]
        );
    }

    #[test]
    fn immediately_ready_futures_refill_in_same_turn() {
        // Coroutines with no yield: the refill loop must chew through all
        // inputs without deadlocking or skipping.
        let inputs: Vec<u64> = (0..50).collect();
        let (out, stats) = run_interleaved_collect(4, &inputs, |_, x| async move { x + 1 });
        assert_eq!(out, (1..=50).collect::<Vec<_>>());
        assert_eq!(stats.polls, 50, "one poll per no-yield lookup");
    }

    #[test]
    fn empty_inputs() {
        let inputs: Vec<u64> = Vec::new();
        let (out, stats) = run_interleaved_collect(8, &inputs, |_, x: u64| async move { x });
        assert!(out.is_empty());
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.polls, 0);
    }

    #[test]
    fn width_larger_than_input_clamps() {
        let inputs: Vec<u64> = (0..3).collect();
        let (out, stats) = run_interleaved_collect(1000, &inputs, |_, x| async move {
            yield_now().await;
            x
        });
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(stats.width, 3);
    }

    #[test]
    fn future_bytes_reported() {
        let inputs = [0u64];
        let big = [0u8; 256];
        let (_, stats) = run_interleaved_collect(1, &inputs, move |_, x| async move {
            yield_now().await;
            // Force `big` into the suspended state across the yield.
            x + big[0] as u64
        });
        assert!(stats.future_bytes >= 256, "state must include captured data");
    }

    #[test]
    fn out_of_order_completion_lands_at_right_index() {
        // Lookup i yields i times, so later inputs can finish earlier.
        let inputs: Vec<u64> = vec![5, 0, 3, 1];
        let order = RefCell::new(Vec::new());
        run_interleaved(
            4,
            &inputs,
            |_, yields| async move {
                for _ in 0..yields {
                    yield_now().await;
                }
                yields * 10
            },
            |idx, v| order.borrow_mut().push((idx, v)),
        );
        let order = order.into_inner();
        // Input 1 (zero yields) completes first; input 0 (five) last.
        assert_eq!(order.first().map(|&(i, _)| i), Some(1));
        assert_eq!(order.last().map(|&(i, _)| i), Some(0));
        // Every index got its own value.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![(0, 50), (1, 0), (2, 30), (3, 10)]);
    }
}
