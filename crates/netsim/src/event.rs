//! The simulator's event queue.
//!
//! Events are totally ordered by `(time, sequence number)`; the sequence
//! number makes the order deterministic when several events share a
//! timestamp (e.g. all nodes booted at the same instant). Events name nodes
//! by their simulator slot (see [`crate::arena`]), so handling one indexes
//! the node arena directly.

use crate::time::SimTime;
use std::collections::BTreeMap;

/// What happens when an event fires.
#[derive(Clone, Debug)]
pub enum EventKind<M> {
    /// The compute timer `Tc` of the node in this slot expired.
    ComputeTimer(u32),
    /// The send timer `Ts` of the node in this slot expired.
    SendTimer(u32),
    /// A broadcast by `from` reaches its recipients: one event carries the
    /// whole delivery sweep (the loss decisions were already made at send
    /// time), so a broadcast costs one queue operation instead of one per
    /// neighbour. Recipients are visited in the recorded order, which is
    /// exactly the order the per-neighbour events used to fire in — the
    /// execution schedule, and therefore every trace digest, is unchanged.
    Broadcast {
        /// Slot of the broadcasting node.
        from: u32,
        /// The message every recipient receives.
        message: M,
        /// Receiver slots of this delivery sweep, in schedule order.
        recipients: Vec<u32>,
    },
    /// Positions advance, and with them the topology (spatial mode only).
    MobilityTick,
    /// An injected fault fires (index into the simulator's fault plan).
    Fault(usize),
}

/// A scheduled event.
#[derive(Clone, Debug)]
pub struct Event<M> {
    /// Absolute activation time.
    pub time: SimTime,
    /// Tie-breaker: events at the same time fire in scheduling order.
    pub seq: u64,
    /// What happens when the event fires.
    pub kind: EventKind<M>,
}

/// Instants the wheel covers: `[base, base + WHEEL_SLOTS)`. A power of two,
/// so an instant's slot is its low bits. Every GRP timer (`Ts`, `Tc`) and
/// delivery delay of the default configuration falls inside one window,
/// and so does every node's first compute timer under the shipped timings
/// (`send_period + compute_period` is at most 2000 ticks): adding 10 000
/// nodes fills the wheel, not the far map.
const WHEEL_SLOTS: usize = 2048;
const SLOT_MASK: usize = WHEEL_SLOTS - 1;
const WORDS: usize = WHEEL_SLOTS / 64;
/// A slot no pending instant maps to.
const NO_BUCKET: u32 = u32::MAX;

/// A timing wheel of same-instant buckets: pending events grouped by
/// activation instant, FIFO within an instant.
///
/// The wheel is a ring of `WHEEL_SLOTS` slots covering the window
/// `[base, base + WHEEL_SLOTS)`, where `base` is the last instant popped:
/// an instant of the window lives in the slot named by its low bits, which
/// holds the index of its bucket in a small pool (one `u32` per slot, plus
/// one occupancy bit). Popping scans the occupancy bitmap circularly from
/// `base`'s slot, which visits the window's instants in ascending order.
/// Instants at or beyond the window's end wait in an ordered *far* map
/// (far faults, long mobility periods, long custom timers); when a
/// pop advances `base`, the far buckets the window now reaches move whole
/// into their (necessarily empty) slots, so no far instant ever lies inside
/// the window.
///
/// **FIFO within an instant.** The simulator only ever pushes with a
/// globally monotone sequence number, so a bucket's push order *is*
/// ascending-`seq` order, and draining bucket after bucket visits events in
/// `(time, seq)` order. An instant's events may sit in two places over its
/// life, but never at once and never out of order: while the instant lies
/// beyond the window every push for it goes to its far bucket, and from
/// the pop that brings it inside the window every push goes to its slot —
/// after the far bucket moved there whole. So the far bucket holds every
/// event pushed before the first wheel push, in order, and the wheel
/// appends the rest behind them. Time only moves forward: no push lands
/// before `base`, since the simulator schedules at or after its clock,
/// which never runs behind the last instant popped.
///
/// The engine lifts a whole same-instant batch out in one operation
/// ([`pop_bucket_until`](Self::pop_bucket_until)) and sorts it into its
/// phases. A drained bucket handed back through [`recycle`](Self::recycle)
/// holds the next new instant's events, so steady-state pushes reuse
/// buffers.
#[derive(Debug)]
pub struct CalendarQueue<M> {
    /// The window's first instant: the last instant popped.
    base: u64,
    /// Per slot, the index into `pool` of the bucket of the window instant
    /// that maps there, or [`NO_BUCKET`].
    slots: Box<[u32]>,
    /// One bit per slot: set iff the slot holds a bucket.
    occupied: [u64; WORDS],
    /// The wheel's buckets, by index; `free` lists the unused indices.
    pool: Vec<Vec<Event<M>>>,
    free: Vec<u32>,
    /// Buckets of the instants at or beyond `base + WHEEL_SLOTS`.
    far: BTreeMap<u64, Vec<Event<M>>>,
    /// Drained buckets, emptied, waiting for a new instant.
    spare: Vec<Vec<Event<M>>>,
    len: usize,
}

impl<M> Default for CalendarQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

/// The occupied slots in instant order: circularly from `base`'s slot, so
/// the start word's bits at and above it come first and its lower bits
/// last.
fn occupied_from(occupied: &[u64; WORDS], base: u64) -> impl Iterator<Item = usize> + '_ {
    let start = base as usize & SLOT_MASK;
    let (first, bit) = (start / 64, start % 64);
    let above = !0u64 << bit;
    std::iter::once((first, occupied[first] & above))
        .chain((1..WORDS).map(move |i| {
            let word = (first + i) % WORDS;
            (word, occupied[word])
        }))
        .chain(std::iter::once((first, occupied[first] & !above)))
        .flat_map(|(word, mut bits)| {
            std::iter::from_fn(move || {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits.checked_sub(1)?;
                Some(word * 64 + bit)
            })
        })
}

impl<M> CalendarQueue<M> {
    /// An empty queue; its one wheel index is allocated here.
    pub fn new() -> Self {
        CalendarQueue {
            base: 0,
            slots: vec![NO_BUCKET; WHEEL_SLOTS].into_boxed_slice(),
            occupied: [0; WORDS],
            pool: Vec::new(),
            free: Vec::new(),
            far: BTreeMap::new(),
            spare: Vec::new(),
            len: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append an event to its instant's bucket. Callers must push with
    /// monotonically increasing `seq` (the simulator's `schedule` does) for
    /// the FIFO-within-bucket order to equal the `(time, seq)` total order,
    /// and at or after the last instant popped.
    pub fn push(&mut self, event: Event<M>) {
        let t = event.time.ticks();
        debug_assert!(
            t >= self.base,
            "push at {t} before the window at {}",
            self.base
        );
        self.len += 1;
        if t - self.base >= WHEEL_SLOTS as u64 {
            self.far
                .entry(t)
                .or_insert_with(|| self.spare.pop().unwrap_or_default())
                .push(event);
            return;
        }
        let slot = t as usize & SLOT_MASK;
        let index = match self.slots[slot] {
            NO_BUCKET => {
                let bucket = self.spare.pop().unwrap_or_default();
                self.install(slot, bucket)
            }
            index => index,
        };
        self.pool[index as usize].push(event);
    }

    /// Give `bucket` the free slot `slot`; returns its pool index.
    fn install(&mut self, slot: usize, bucket: Vec<Event<M>>) -> u32 {
        debug_assert_eq!(self.slots[slot], NO_BUCKET, "slot {slot} is taken");
        let index = match self.free.pop() {
            Some(index) => {
                self.pool[index as usize] = bucket;
                index
            }
            None => {
                self.pool.push(bucket);
                (self.pool.len() - 1) as u32
            }
        };
        self.slots[slot] = index;
        self.occupied[slot / 64] |= 1 << (slot % 64);
        index
    }

    /// Move the far buckets the window `[base, base + WHEEL_SLOTS)` now
    /// reaches into their slots, whole and in ascending order.
    fn pull_far(&mut self) {
        while let Some(entry) = self.far.first_entry() {
            let t = *entry.key();
            if t - self.base >= WHEEL_SLOTS as u64 {
                break;
            }
            let bucket = entry.remove();
            debug_assert!(bucket.iter().all(|e| e.time.ticks() == t));
            self.install(t as usize & SLOT_MASK, bucket);
        }
    }

    /// The window instant that maps to `slot`.
    fn instant_of(&self, slot: usize) -> u64 {
        self.base + (slot.wrapping_sub(self.base as usize) & SLOT_MASK) as u64
    }

    /// Empty `slot` and return its bucket.
    fn take_slot(&mut self, slot: usize) -> Vec<Event<M>> {
        let index = std::mem::replace(&mut self.slots[slot], NO_BUCKET);
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        self.free.push(index);
        std::mem::take(&mut self.pool[index as usize])
    }

    /// Remove and return the entire earliest bucket — every pending event
    /// sharing the earliest activation instant, in scheduling order — if
    /// that instant is at or before `deadline`.
    pub fn pop_bucket_until(&mut self, deadline: SimTime) -> Option<(SimTime, Vec<Event<M>>)> {
        let t = match occupied_from(&self.occupied, self.base).next() {
            Some(slot) => self.instant_of(slot),
            // the wheel is empty: the earliest instant is the far map's
            None => *self.far.keys().next()?,
        };
        if t > deadline.ticks() {
            return None;
        }
        if t != self.base {
            self.base = t;
            self.pull_far();
        }
        let bucket = self.take_slot(t as usize & SLOT_MASK);
        debug_assert!(bucket.iter().all(|e| e.time.ticks() == t));
        debug_assert!(
            self.far
                .keys()
                .next()
                .is_none_or(|&f| f - t >= WHEEL_SLOTS as u64),
            "a far instant lies inside the window"
        );
        self.len -= bucket.len();
        Some((SimTime(t), bucket))
    }

    /// Hand back a bucket [`pop_bucket_until`](Self::pop_bucket_until)
    /// returned, once its events are taken: its buffer serves a later new
    /// instant.
    pub fn recycle(&mut self, mut bucket: Vec<Event<M>>) {
        bucket.clear();
        self.spare.push(bucket);
    }

    /// Apply `f` to every pending event in `(time, seq)` order: the wheel
    /// circularly from `base`, then the far map.
    fn for_each_event(&mut self, mut f: impl FnMut(&mut Event<M>)) {
        for slot in occupied_from(&self.occupied, self.base) {
            self.pool[self.slots[slot] as usize]
                .iter_mut()
                .for_each(&mut f);
        }
        self.far.values_mut().flatten().for_each(f);
    }

    /// Apply `f` to the payload of every queued [`EventKind::Broadcast`]
    /// sent by `from`, in `(time, seq)` order — the mutation hook behind
    /// [`FaultKind::CorruptMessage`](crate::fault::FaultKind): an
    /// in-flight message is exactly a broadcast sweep still sitting in
    /// this queue. Returns how many payloads were visited. The visit order
    /// (and therefore any RNG the callback consumes) is deterministic.
    pub fn corrupt_broadcasts_from(&mut self, from: u32, f: &mut dyn FnMut(&mut M)) -> usize {
        let mut visited = 0;
        self.for_each_event(|event| {
            if let EventKind::Broadcast {
                from: sender,
                message,
                ..
            } = &mut event.kind
            {
                if *sender == from {
                    f(message);
                    visited += 1;
                }
            }
        });
        visited
    }

    /// A node was inserted into the arena at `slot`: every queued reference
    /// to that slot or a later one moves up by one with its node.
    pub fn open_slot(&mut self, slot: u32) {
        let bump = |s: &mut u32| {
            if *s >= slot {
                *s += 1;
            }
        };
        self.for_each_event(|event| match &mut event.kind {
            EventKind::ComputeTimer(s) | EventKind::SendTimer(s) => bump(s),
            EventKind::Broadcast {
                from, recipients, ..
            } => {
                bump(from);
                recipients.iter_mut().for_each(bump);
            }
            EventKind::MobilityTick | EventKind::Fault(_) => {}
        });
    }

    /// Check the wheel's invariants: every wheel bucket's instant lies in
    /// the window and maps to its slot, no far instant lies inside the
    /// window, and `len` counts every pending event.
    #[cfg(test)]
    fn assert_invariants(&self) {
        let mut counted = 0;
        for slot in 0..WHEEL_SLOTS {
            let occupied = self.occupied[slot / 64] >> (slot % 64) & 1 == 1;
            assert_eq!(occupied, self.slots[slot] != NO_BUCKET, "slot {slot}");
            if occupied {
                let bucket = &self.pool[self.slots[slot] as usize];
                assert!(!bucket.is_empty(), "slot {slot} holds an empty bucket");
                let t = bucket[0].time.ticks();
                assert!(t >= self.base && t - self.base < WHEEL_SLOTS as u64);
                assert_eq!(t as usize & SLOT_MASK, slot);
                assert!(bucket.iter().all(|e| e.time.ticks() == t));
                counted += bucket.len();
            }
        }
        for (&t, bucket) in &self.far {
            assert!(
                t - self.base >= WHEEL_SLOTS as u64,
                "far instant {t} in the window"
            );
            assert!(bucket.iter().all(|e| e.time.ticks() == t));
            counted += bucket.len();
        }
        assert_eq!(counted, self.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const W: u64 = WHEEL_SLOTS as u64;

    /// Every pending event, bucket after bucket.
    fn drain<M>(cal: &mut CalendarQueue<M>) -> Vec<Event<M>> {
        std::iter::from_fn(|| cal.pop_bucket_until(SimTime(u64::MAX)))
            .flat_map(|(_, bucket)| bucket)
            .collect()
    }

    fn ev(time: u64, seq: u64) -> Event<()> {
        Event {
            time: SimTime(time),
            seq,
            kind: EventKind::MobilityTick,
        }
    }

    /// A broadcast of `payload` by `from`, as the oracle tests queue them.
    fn bcast(time: u64, seq: u64, from: u32, payload: u64) -> Event<u64> {
        Event {
            time: SimTime(time),
            seq,
            kind: EventKind::Broadcast {
                from,
                message: payload,
                recipients: vec![from + 1],
            },
        }
    }

    /// What a queue test step does: push an event `delay` ticks after the
    /// last popped instant, or pop the earliest bucket.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Push { delay: u64, from: u32 },
        Pop,
    }

    /// Steps whose delays cover the wheel's cases: the popped instant
    /// itself, the window, and `W..3W` across the window's end.
    fn steps() -> impl Strategy<Value = Vec<Step>> {
        let step =
            (0u8..8, 0u64..W, 0u64..2 * W, 0u32..4).prop_map(
                |(kind, near, far, from)| match kind {
                    0 => Step::Push { delay: 0, from },
                    1..=3 => Step::Push { delay: near, from },
                    4 => Step::Push {
                        delay: W + far,
                        from,
                    },
                    5 => Step::Push {
                        delay: near % 8,
                        from,
                    },
                    _ => Step::Pop,
                },
            );
        proptest::collection::vec(step, 0..200)
    }

    /// Run `steps` against the queue and against a `(time, seq)`-sorted
    /// oracle; every pop must lift exactly the oracle's earliest instant.
    /// Leaves both holding the same pending events.
    fn replay(steps: &[Step]) -> (CalendarQueue<u64>, Vec<(u64, u64, u32)>) {
        let mut cal = CalendarQueue::new();
        let mut oracle: Vec<(u64, u64, u32)> = Vec::new();
        let (mut now, mut seq) = (0u64, 0u64);
        for &step in steps {
            match step {
                Step::Push { delay, from } => {
                    seq += 1;
                    cal.push(bcast(now + delay, seq, from, seq));
                    oracle.push((now + delay, seq, from));
                }
                Step::Pop => {
                    oracle.sort_unstable();
                    let popped = cal.pop_bucket_until(SimTime(u64::MAX));
                    let Some(&(t, _, _)) = oracle.first() else {
                        assert!(popped.is_none());
                        continue;
                    };
                    let (time, bucket) = popped.expect("the oracle is non-empty");
                    let expected: Vec<_> = oracle.iter().take_while(|e| e.0 == t).collect();
                    assert_eq!(time, SimTime(t));
                    let got: Vec<_> = bucket.iter().map(|e| (e.time.ticks(), e.seq)).collect();
                    let want: Vec<_> = expected.iter().map(|e| (e.0, e.1)).collect();
                    assert_eq!(got, want);
                    oracle.drain(..expected.len());
                    cal.recycle(bucket);
                    now = t;
                }
            }
            cal.assert_invariants();
        }
        oracle.sort_unstable();
        (cal, oracle)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_wheel_pops_in_oracle_order(steps in steps()) {
            let (mut cal, oracle) = replay(&steps);
            let rest: Vec<_> = drain(&mut cal).iter().map(|e| (e.time.ticks(), e.seq)).collect();
            let want: Vec<_> = oracle.iter().map(|e| (e.0, e.1)).collect();
            prop_assert_eq!(rest, want);
            prop_assert!(cal.is_empty());
        }

        #[test]
        fn corrupt_and_open_slot_visit_in_oracle_order(steps in steps(), from in 0u32..4) {
            let (mut cal, oracle) = replay(&steps);
            let mut seen = Vec::new();
            let visited = cal.corrupt_broadcasts_from(from, &mut |m: &mut u64| seen.push(*m));
            let want: Vec<u64> = oracle.iter().filter(|e| e.2 == from).map(|e| e.1).collect();
            prop_assert_eq!(visited, want.len());
            prop_assert_eq!(seen, want);
            cal.open_slot(from);
            let senders: Vec<u32> = drain(&mut cal)
                .into_iter()
                .map(|e| match e.kind {
                    EventKind::Broadcast { from, .. } => from,
                    _ => unreachable!("only broadcasts are queued"),
                })
                .collect();
            let bumped: Vec<u32> = oracle
                .iter()
                .map(|e| if e.2 >= from { e.2 + 1 } else { e.2 })
                .collect();
            prop_assert_eq!(senders, bumped);
        }
    }

    #[test]
    fn calendar_pop_matches_heap_order_under_monotone_seq() {
        // the engine's invariant: seq strictly increases across pushes,
        // whatever the target times are; a heap would pop (time, seq)
        let pushes = [
            (30u64, 1u64),
            (10, 2),
            (30, 3),
            (10, 4),
            (20, 5),
            (W + 10, 6),
        ];
        let mut cal = CalendarQueue::new();
        for &(t, s) in &pushes {
            cal.push(ev(t, s));
        }
        assert_eq!(cal.len(), pushes.len());
        let mut sorted = pushes.to_vec();
        sorted.sort_unstable();
        let popped: Vec<_> = drain(&mut cal)
            .iter()
            .map(|e| (e.time.ticks(), e.seq))
            .collect();
        assert_eq!(popped, sorted);
        assert!(cal.is_empty());
    }

    #[test]
    fn pop_bucket_until_stops_at_the_deadline() {
        let mut cal = CalendarQueue::new();
        cal.push(ev(20, 1));
        cal.push(ev(10, 2));
        assert!(cal.pop_bucket_until(SimTime(9)).is_none());
        let (time, bucket) = cal.pop_bucket_until(SimTime(10)).expect("due");
        assert_eq!((time, bucket[0].seq), (SimTime(10), 2));
        assert!(cal.pop_bucket_until(SimTime(19)).is_none());
        assert_eq!(cal.len(), 1);
    }

    #[test]
    fn far_instants_join_the_window_behind_their_earlier_pushes() {
        // t = 3W is beyond the window at first: its first two events wait
        // in the far map, the third is pushed once the window reaches it
        let t = 3 * W;
        let mut cal = CalendarQueue::new();
        cal.push(ev(t, 1));
        cal.push(ev(2 * W + 5, 2));
        cal.push(ev(t, 3));
        let (time, bucket) = cal.pop_bucket_until(SimTime(u64::MAX)).expect("2W + 5");
        assert_eq!(time, SimTime(2 * W + 5));
        cal.recycle(bucket);
        cal.assert_invariants();
        cal.push(ev(t, 4));
        let (time, bucket) = cal.pop_bucket_until(SimTime(u64::MAX)).expect("3W");
        assert_eq!(time, SimTime(t));
        assert_eq!(bucket.iter().map(|e| e.seq).collect::<Vec<_>>(), [1, 3, 4]);
    }

    #[test]
    fn corrupt_broadcasts_from_visits_only_the_senders_payloads_in_order() {
        let mut cal = CalendarQueue::new();
        cal.push(bcast(30, 1, 7, 300));
        cal.push(bcast(10, 2, 7, 100));
        cal.push(bcast(20, 3, 8, 200));
        cal.push(bcast(W + 40, 4, 7, 400));
        cal.push(Event {
            time: SimTime(10),
            seq: 5,
            kind: EventKind::SendTimer(7),
        });
        let mut seen = Vec::new();
        let visited = cal.corrupt_broadcasts_from(7, &mut |m: &mut u64| {
            seen.push(*m);
            *m += 1;
        });
        assert_eq!(visited, 3);
        assert_eq!(seen, [100, 300, 400], "visited in (time, seq) order");
        // the payloads were mutated in place; node 8's was untouched
        let mut payloads = Vec::new();
        for e in drain(&mut cal) {
            if let EventKind::Broadcast { from, message, .. } = e.kind {
                payloads.push((from, message));
            }
        }
        assert_eq!(payloads, [(7, 101), (8, 200), (7, 301), (7, 401)]);
    }

    #[test]
    fn open_slot_moves_every_later_reference_up() {
        let mut cal = CalendarQueue::new();
        cal.push(Event {
            time: SimTime(10),
            seq: 1,
            kind: EventKind::Broadcast {
                from: 2,
                message: (),
                recipients: vec![0, 1, 3],
            },
        });
        cal.push(Event {
            time: SimTime(20),
            seq: 2,
            kind: EventKind::ComputeTimer(1),
        });
        cal.push(Event {
            time: SimTime(2 * W),
            seq: 3,
            kind: EventKind::SendTimer(0),
        });
        cal.open_slot(1);
        let kinds: Vec<_> = drain(&mut cal).into_iter().map(|e| e.kind).collect();
        assert!(matches!(
            &kinds[0],
            EventKind::Broadcast { from: 3, recipients, .. } if recipients == &[0, 2, 4]
        ));
        assert!(matches!(kinds[1], EventKind::ComputeTimer(2)));
        assert!(matches!(kinds[2], EventKind::SendTimer(0)));
    }

    #[test]
    fn recycled_buckets_serve_new_instants() {
        let mut cal = CalendarQueue::new();
        for seq in 0..8 {
            cal.push(ev(10, seq));
        }
        let (_, mut bucket) = cal.pop_bucket_until(SimTime(u64::MAX)).expect("non-empty");
        let capacity = bucket.capacity();
        assert_eq!(bucket.drain(..).count(), 8);
        cal.recycle(bucket);
        cal.push(ev(20, 8));
        cal.push(ev(30, 9));
        let (time, bucket) = cal
            .pop_bucket_until(SimTime(u64::MAX))
            .expect("the reused bucket");
        assert_eq!(time, SimTime(20));
        assert_eq!(bucket.capacity(), capacity, "the drained buffer came back");
        assert_eq!(bucket.iter().map(|e| e.seq).collect::<Vec<_>>(), [8]);
        assert_eq!(drain(&mut cal).len(), 1);
    }

    #[test]
    fn pop_bucket_lifts_a_whole_instant_in_schedule_order() {
        let mut cal = CalendarQueue::new();
        cal.push(ev(10, 1));
        cal.push(ev(20, 2));
        cal.push(ev(10, 3));
        let (time, bucket) = cal.pop_bucket_until(SimTime(u64::MAX)).expect("non-empty");
        assert_eq!(time, SimTime(10));
        assert_eq!(bucket.iter().map(|e| e.seq).collect::<Vec<_>>(), [1, 3]);
        assert_eq!(cal.len(), 1);
        let (time, bucket) = cal
            .pop_bucket_until(SimTime(u64::MAX))
            .expect("second bucket");
        assert_eq!((time, bucket.len()), (SimTime(20), 1));
        assert!(cal.pop_bucket_until(SimTime(u64::MAX)).is_none());
    }
}
