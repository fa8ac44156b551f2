//! The event queue: a bounded-horizon timing wheel.
//!
//! The engine dispatches events in `(time, sequence)` order. The model's
//! scheduling horizon is bounded — message delays are capped by ν and
//! motion steps by `move_step_ticks`, so almost every event lands within a
//! small window above the current instant — and the wheel exploits that to
//! make both `push` and `pop` O(1): events hash into per-tick buckets, ties
//! within a bucket are consumed in insertion (= sequence) order, and the
//! rare event beyond the window parks in a small overflow heap consulted
//! alongside the wheel. The live runtime drives its node wakeups from the
//! same queue. DESIGN.md §12 gives the ordering argument; the golden
//! fingerprints of the `queue_equivalence` suite pin the dispatch order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::config::SimConfig;
use crate::time::SimTime;

/// Slab cell: payload plus the key it was queued under. `item` is `None`
/// when the cell is on the free list.
struct Slot<T> {
    at: SimTime,
    seq: u64,
    item: Option<T>,
}

/// One wheel bucket: slab indices in insertion (= sequence) order,
/// consumed FIFO through `head`. All live entries of a bucket share one
/// `at` — the window invariant maps each pending tick to its own bucket.
#[derive(Default)]
struct Bucket {
    entries: Vec<u32>,
    head: usize,
}

/// Where the cached peek candidate lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Loc {
    Bucket,
    Overflow,
}

/// The cached peek candidate: the global `(at, seq)` minimum, computed at
/// most once between structural changes.
#[derive(Clone, Copy)]
struct Cand {
    at: SimTime,
    seq: u64,
    slot: u32,
    loc: Loc,
}

/// A bounded-horizon timing wheel over slab-allocated entries, yielding
/// entries in ascending `(at, seq)` order. `seq` values are assigned by
/// the caller and must strictly increase across pushes.
///
/// Invariants:
/// * every bucket-resident entry satisfies `base ≤ at < base + size`, so
///   `at & mask` is injective over pending ticks and each bucket holds one
///   `at` value, in sequence order;
/// * `base` only advances, to the `at` of each popped entry (the global
///   minimum, so nothing pending in a bucket is ever below `base`);
/// * entries outside the window — beyond it, or below `base` — go to the
///   `overflow` heap and are popped from there; they are never
///   redistributed onto the wheel.
pub struct EventQueue<T> {
    slab: Vec<Slot<T>>,
    free: Vec<u32>,
    buckets: Vec<Bucket>,
    mask: u64,
    base: SimTime,
    overflow: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    cached: Option<Cand>,
    len: usize,
}

impl<T> EventQueue<T> {
    /// An empty queue whose window covers at least `window_ticks` ticks
    /// (rounded up to a power of two). Entries further ahead than the
    /// window still dispatch in order, through the overflow heap.
    pub fn new(window_ticks: u64) -> EventQueue<T> {
        let size = window_ticks.max(1).next_power_of_two();
        EventQueue {
            slab: Vec::new(),
            free: Vec::new(),
            buckets: (0..size).map(|_| Bucket::default()).collect(),
            mask: size - 1,
            base: SimTime::ZERO,
            overflow: BinaryHeap::new(),
            cached: None,
            len: 0,
        }
    }

    /// The engine's queue: the window spans the config's scheduling
    /// horizon (ν and the motion step), with a generous floor so
    /// harness-level timers stay on the wheel.
    pub(crate) fn from_config(cfg: &SimConfig) -> EventQueue<T> {
        EventQueue::new((cfg.max_message_delay + cfg.move_step_ticks + 2).max(256))
    }

    /// Number of queued entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Visit every queued entry in unspecified order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SimTime, u64, &T)> + '_ {
        self.slab
            .iter()
            .filter_map(|s| s.item.as_ref().map(|it| (s.at, s.seq, it)))
    }

    fn alloc(&mut self, at: SimTime, seq: u64, item: T) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.slab[slot as usize] = Slot {
                at,
                seq,
                item: Some(item),
            };
            slot
        } else {
            self.slab.push(Slot {
                at,
                seq,
                item: Some(item),
            });
            (self.slab.len() - 1) as u32
        }
    }

    /// Insert an entry. `seq` must exceed every previously pushed `seq`.
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) {
        if self.len == 0 {
            // Nothing pending: re-anchor the window so a long quiet gap
            // does not force future near-term events into the overflow.
            self.base = at;
            self.cached = None;
        }
        let slot = self.alloc(at, seq, item);
        let size = self.buckets.len() as u64;
        let loc = if at >= self.base && at.0 - self.base.0 < size {
            self.buckets[(at.0 & self.mask) as usize].entries.push(slot);
            Loc::Bucket
        } else {
            // Beyond the window, or below the base (a live wakeup armed
            // after its tick has passed).
            self.overflow.push(Reverse((at, seq, slot)));
            Loc::Overflow
        };
        self.len += 1;
        // A fresh entry can only displace the cached minimum with a
        // strictly smaller time: its seq is larger than everything queued.
        if let Some(c) = self.cached {
            if at < c.at {
                self.cached = Some(Cand { at, seq, slot, loc });
            }
        }
    }

    /// Compute (or reuse) the global minimum candidate.
    fn ensure_cand(&mut self) {
        if self.cached.is_some() || self.len == 0 {
            return;
        }
        let mut best: Option<Cand> = None;
        if self.len > self.overflow.len() {
            // At least one bucket-resident entry: scan ticks upward from
            // `base`; the first non-empty bucket holds the wheel minimum,
            // and its FIFO head is the smallest seq at that tick.
            let size = self.buckets.len() as u64;
            for i in 0..size {
                let t = self.base.0.wrapping_add(i);
                let b = &self.buckets[(t & self.mask) as usize];
                if b.head < b.entries.len() {
                    let slot = b.entries[b.head];
                    let s = &self.slab[slot as usize];
                    best = Some(Cand {
                        at: s.at,
                        seq: s.seq,
                        slot,
                        loc: Loc::Bucket,
                    });
                    break;
                }
            }
            debug_assert!(best.is_some(), "wheel count says an entry exists");
        }
        if let Some(&Reverse((at, seq, slot))) = self.overflow.peek() {
            if best.is_none_or(|c| (at, seq) < (c.at, c.seq)) {
                best = Some(Cand {
                    at,
                    seq,
                    slot,
                    loc: Loc::Overflow,
                });
            }
        }
        self.cached = best;
    }

    /// Time of the next entry in `(at, seq)` order, without removing it.
    /// The following [`EventQueue::pop`] returns exactly this entry — peek
    /// and pop share one cached candidate, so the two never desynchronize.
    pub fn next_at(&mut self) -> Option<SimTime> {
        self.ensure_cand();
        self.cached.map(|c| c.at)
    }

    /// Remove and return the smallest entry in `(at, seq)` order.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.ensure_cand();
        let c = self.cached.take()?;
        match c.loc {
            Loc::Bucket => {
                let b = &mut self.buckets[(c.at.0 & self.mask) as usize];
                debug_assert_eq!(b.entries.get(b.head), Some(&c.slot));
                b.head += 1;
                if b.head == b.entries.len() {
                    b.entries.clear();
                    b.head = 0;
                }
            }
            Loc::Overflow => {
                let popped = self.overflow.pop();
                debug_assert_eq!(popped, Some(Reverse((c.at, c.seq, c.slot))));
            }
        }
        // Advance-only: a below-base overflow entry (pushed after an
        // empty-queue re-anchor picked a later base) must not drag the
        // window backwards under the remaining bucket entries.
        self.base = self.base.max(c.at);
        self.len -= 1;
        let cell = &mut self.slab[c.slot as usize];
        let item = cell.item.take().expect("candidate slot is live");
        self.free.push(c.slot);
        Some((c.at, c.seq, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// The ordering oracle: a plain binary heap on the full `(at, seq)` key.
    type Model<T> = BinaryHeap<Reverse<(SimTime, u64, T)>>;

    fn drain<T>(q: &mut EventQueue<T>) -> Vec<(SimTime, u64, T)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn both_cores_drain_in_at_seq_order() {
        let mut model: Model<u32> = BinaryHeap::new();
        let mut wheel: EventQueue<u32> = EventQueue::from_config(&SimConfig::default());
        // Same instant, interleaved pushes: ties must break by seq (FIFO).
        for (seq, at) in [(1, 5u64), (2, 3), (3, 5), (4, 3), (5, 4)] {
            model.push(Reverse((SimTime(at), seq, seq as u32)));
            wheel.push(SimTime(at), seq, seq as u32);
        }
        let want: Vec<_> = std::iter::from_fn(|| model.pop().map(|Reverse(e)| e)).collect();
        assert_eq!(drain(&mut wheel), want);
        assert_eq!(
            want,
            vec![
                (SimTime(3), 2, 2),
                (SimTime(3), 4, 4),
                (SimTime(4), 5, 5),
                (SimTime(5), 1, 1),
                (SimTime(5), 3, 3),
            ]
        );
    }

    #[test]
    fn peek_always_matches_the_next_pop() {
        // Randomized differential run against the heap model, including
        // far events (overflow), interleaved pushes and pops, and peeks
        // between every step.
        let mut rng = SimRng::seed_from_u64(0xBEE5_0001);
        let mut model: Model<u64> = BinaryHeap::new();
        let mut wheel: EventQueue<u64> = EventQueue::from_config(&SimConfig::default());
        let mut now = 0u64;
        let mut seq = 0u64;
        for step in 0..20_000 {
            if rng.gen_bool(0.55) || model.is_empty() {
                // Mostly near-term events; occasionally far beyond the
                // 256-tick window, and sometimes exactly `now`.
                let delay = match rng.gen_range(0..10u32) {
                    0 => 0,
                    1..=7 => rng.gen_range(0..12u64),
                    8 => rng.gen_range(200..300u64),
                    _ => rng.gen_range(1_000..50_000u64),
                };
                seq += 1;
                model.push(Reverse((SimTime(now + delay), seq, seq)));
                wheel.push(SimTime(now + delay), seq, seq);
            } else {
                let peek = model.peek().map(|Reverse((at, _, _))| *at);
                assert_eq!(wheel.next_at(), peek, "peek diverged @{step}");
                let m = model.pop().map(|Reverse(e)| e);
                assert_eq!(wheel.pop(), m, "pop diverged @{step}");
                if let Some((at, _, _)) = m {
                    assert!(at.0 >= now, "time went backwards @{step}");
                    now = at.0;
                }
            }
            assert_eq!(model.len(), wheel.len());
        }
        let rest: Vec<_> = std::iter::from_fn(|| model.pop().map(|Reverse(e)| e)).collect();
        assert_eq!(drain(&mut wheel), rest);
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn iter_visits_every_pending_entry() {
        let mut q: EventQueue<u32> = EventQueue::from_config(&SimConfig::default());
        q.push(SimTime(2), 1, 10);
        q.push(SimTime(9_999), 2, 20); // overflow
        q.push(SimTime(2), 3, 30);
        assert_eq!(q.pop(), Some((SimTime(2), 1, 10)));
        let mut seen: Vec<(u64, u64, u32)> =
            q.iter().map(|(at, seq, &it)| (at.0, seq, it)).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![(2, 3, 30), (9_999, 2, 20)]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn window_reanchors_after_a_quiet_gap() {
        let mut q: EventQueue<u32> = EventQueue::from_config(&SimConfig::default());
        q.push(SimTime(1), 1, 1);
        assert_eq!(q.pop(), Some((SimTime(1), 1, 1)));
        // Far in the future relative to the drained window: must still be
        // an O(1) wheel insert (re-anchored base), and pop correctly.
        q.push(SimTime(1_000_000), 2, 2);
        q.push(SimTime(1_000_001), 3, 3);
        assert!(q.overflow.is_empty(), "base must re-anchor when empty");
        assert_eq!(q.pop(), Some((SimTime(1_000_000), 2, 2)));
        assert_eq!(q.pop(), Some((SimTime(1_000_001), 3, 3)));
    }

    // The live runtime's use: node wakeups keyed on virtual ticks, drained
    // with "pop while the next tick is due".

    /// Arm a wakeup for `node` at `tick`, numbering pushes in order.
    fn arm(q: &mut EventQueue<u32>, seq: &mut u64, tick: u64, node: u32) {
        *seq += 1;
        q.push(SimTime(tick), *seq, node);
    }

    /// Every wakeup due at or before `now`, in dispatch order.
    fn due(q: &mut EventQueue<u32>, now: u64) -> Vec<u32> {
        let mut out = vec![];
        while q.next_at().is_some_and(|at| at.0 <= now) {
            out.push(q.pop().expect("peeked entry").2);
        }
        out
    }

    #[test]
    fn due_wakeups_fire_and_future_ones_wait() {
        let (mut q, mut seq) = (EventQueue::new(8), 0);
        arm(&mut q, &mut seq, 2, 0);
        arm(&mut q, &mut seq, 5, 1);
        arm(&mut q, &mut seq, 5, 2);
        assert_eq!(q.next_at(), Some(SimTime(2)));
        assert_eq!(due(&mut q, 1), Vec::<u32>::new());
        assert_eq!(due(&mut q, 4), vec![0]);
        assert_eq!(q.next_at(), Some(SimTime(5)));
        assert_eq!(due(&mut q, 5), vec![1, 2]);
        assert_eq!(q.next_at(), None);
    }

    #[test]
    fn past_deadline_below_base_pops_first() {
        let (mut q, mut seq) = (EventQueue::new(4), 0);
        arm(&mut q, &mut seq, 10, 0);
        arm(&mut q, &mut seq, 12, 1);
        assert_eq!(due(&mut q, 10), vec![0]);
        // Armed late, for a tick already behind the window's base.
        arm(&mut q, &mut seq, 3, 5);
        assert_eq!(q.overflow.len(), 1, "a below-base tick parks in overflow");
        assert_eq!(q.next_at(), Some(SimTime(3)));
        assert_eq!(due(&mut q, 11), vec![5]);
        assert_eq!(due(&mut q, 12), vec![1]);
    }

    #[test]
    fn far_deadlines_park_in_overflow_and_still_fire() {
        let (mut q, mut seq) = (EventQueue::new(4), 0);
        arm(&mut q, &mut seq, 1, 0);
        arm(&mut q, &mut seq, 100, 7);
        assert_eq!(q.overflow.len(), 1, "beyond the window parks in overflow");
        assert_eq!(due(&mut q, 50), vec![0]);
        assert_eq!(q.next_at(), Some(SimTime(100)));
        assert_eq!(due(&mut q, 99), Vec::<u32>::new());
        assert_eq!(due(&mut q, 100), vec![7]);
    }

    #[test]
    fn lapped_entries_do_not_fire_early() {
        let (mut q, mut seq) = (EventQueue::new(4), 0);
        // Tick 6 hashes into the same bucket as tick 2 (window 4).
        arm(&mut q, &mut seq, 6, 1);
        arm(&mut q, &mut seq, 2, 0);
        arm(&mut q, &mut seq, 3, 2);
        assert_eq!(due(&mut q, 2), vec![0]);
        arm(&mut q, &mut seq, 5, 3);
        assert_eq!(due(&mut q, 5), vec![2, 3]);
        arm(&mut q, &mut seq, 9, 4); // hashes like tick 5
        assert_eq!(due(&mut q, 8), vec![1]);
        assert_eq!(due(&mut q, 9), vec![4]);
    }

    #[test]
    fn long_stall_drains_everything_once() {
        let (mut q, mut seq) = (EventQueue::new(4), 0);
        for i in 0..4u64 {
            arm(&mut q, &mut seq, i, i as u32);
        }
        arm(&mut q, &mut seq, 9, 9);
        assert_eq!(due(&mut q, 1_000), vec![0, 1, 2, 3, 9]);
        assert_eq!(q.next_at(), None);
        assert_eq!(q.len(), 0);
    }
}
