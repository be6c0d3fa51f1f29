//! The simulator's event queue.
//!
//! Events are totally ordered by `(time, sequence number)`; the sequence
//! number makes the order deterministic when several events share a
//! timestamp (e.g. all nodes booted at the same instant). Events name nodes
//! by their simulator slot (see [`crate::arena`]), so handling one indexes
//! the node arena directly.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};

/// What happens when an event fires.
#[derive(Clone, Debug)]
pub enum EventKind<M> {
    /// The compute timer `Tc` of the node in this slot expired.
    ComputeTimer(u32),
    /// The send timer `Ts` of the node in this slot expired.
    SendTimer(u32),
    /// A broadcast by `from` reaches its recipients: one event carries the
    /// whole delivery sweep (the loss decisions were already made at send
    /// time), so a broadcast costs one heap operation instead of one per
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

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<M> Eq for Event<M> {}

impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Event<M> {
    /// Reverse ordering so that `BinaryHeap` (a max-heap) pops the earliest
    /// event first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A bucketed calendar queue: pending events grouped by activation
/// instant, FIFO within an instant.
///
/// The simulator only ever pushes with a globally monotone sequence
/// number, so the FIFO order inside each bucket *is* ascending-`seq`
/// order — draining bucket after bucket visits events in `(time, seq)`
/// order, exactly as a `BinaryHeap` of [`Event`]s would pop them. The engine
/// lifts a whole same-instant batch out in one operation
/// ([`pop_bucket`](Self::pop_bucket)) and sorts it into its phases,
/// something a heap can only do by popping and re-inspecting every entry.
/// A drained bucket handed back through [`recycle`](Self::recycle) holds
/// the next new instant's events, so steady-state pushes reuse buffers.
#[derive(Debug)]
pub struct CalendarQueue<M> {
    buckets: BTreeMap<SimTime, VecDeque<Event<M>>>,
    /// Drained buckets, emptied, waiting for a new instant.
    spare: Vec<VecDeque<Event<M>>>,
    len: usize,
}

impl<M> Default for CalendarQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> CalendarQueue<M> {
    /// An empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: BTreeMap::new(),
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
    /// the FIFO-within-bucket order to equal the `(time, seq)` total order.
    pub fn push(&mut self, event: Event<M>) {
        self.buckets
            .entry(event.time)
            .or_insert_with(|| self.spare.pop().unwrap_or_default())
            .push_back(event);
        self.len += 1;
    }

    /// The earliest pending event, if any.
    pub fn peek(&self) -> Option<&Event<M>> {
        self.buckets.values().next().and_then(VecDeque::front)
    }

    /// Remove and return the entire earliest bucket: every pending event
    /// sharing the earliest activation instant, in scheduling order.
    pub fn pop_bucket(&mut self) -> Option<(SimTime, VecDeque<Event<M>>)> {
        let (&time, _) = self.buckets.iter().next()?;
        let bucket = self.buckets.remove(&time)?;
        self.len -= bucket.len();
        Some((time, bucket))
    }

    /// Hand back a bucket [`pop_bucket`](Self::pop_bucket) returned, once
    /// its events are taken: its buffer serves a later new instant.
    pub fn recycle(&mut self, mut bucket: VecDeque<Event<M>>) {
        bucket.clear();
        self.spare.push(bucket);
    }

    /// Apply `f` to the payload of every queued [`EventKind::Broadcast`]
    /// sent by `from`, in `(time, seq)` order — the mutation hook behind
    /// [`FaultKind::CorruptMessage`](crate::fault::FaultKind): an
    /// in-flight message is exactly a broadcast sweep still sitting in
    /// this queue. Returns how many payloads were visited. Iteration rides
    /// the `BTreeMap` bucket order, so the visit order (and therefore any
    /// RNG the callback consumes) is deterministic.
    pub fn corrupt_broadcasts_from(&mut self, from: u32, f: &mut dyn FnMut(&mut M)) -> usize {
        let mut visited = 0;
        for bucket in self.buckets.values_mut() {
            for event in bucket.iter_mut() {
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
            }
        }
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
        for event in self.buckets.values_mut().flatten() {
            match &mut event.kind {
                EventKind::ComputeTimer(s) | EventKind::SendTimer(s) => bump(s),
                EventKind::Broadcast {
                    from, recipients, ..
                } => {
                    bump(from);
                    recipients.iter_mut().for_each(bump);
                }
                EventKind::MobilityTick | EventKind::Fault(_) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    /// Every pending event, bucket after bucket.
    fn drain<M>(cal: &mut CalendarQueue<M>) -> Vec<Event<M>> {
        std::iter::from_fn(|| cal.pop_bucket())
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

    #[test]
    fn heap_pops_earliest_first() {
        let mut heap = BinaryHeap::new();
        heap.push(ev(30, 0));
        heap.push(ev(10, 1));
        heap.push(ev(20, 2));
        assert_eq!(heap.pop().unwrap().time, SimTime(10));
        assert_eq!(heap.pop().unwrap().time, SimTime(20));
        assert_eq!(heap.pop().unwrap().time, SimTime(30));
    }

    #[test]
    fn ties_broken_by_sequence_number() {
        let mut heap = BinaryHeap::new();
        heap.push(ev(10, 5));
        heap.push(ev(10, 2));
        heap.push(ev(10, 9));
        assert_eq!(heap.pop().unwrap().seq, 2);
        assert_eq!(heap.pop().unwrap().seq, 5);
        assert_eq!(heap.pop().unwrap().seq, 9);
    }

    #[test]
    fn calendar_pop_matches_heap_order_under_monotone_seq() {
        // the engine's invariant: seq strictly increases across pushes,
        // whatever the target times are
        let pushes = [(30u64, 1u64), (10, 2), (30, 3), (10, 4), (20, 5)];
        let mut heap = BinaryHeap::new();
        let mut cal = CalendarQueue::new();
        for &(t, s) in &pushes {
            heap.push(ev(t, s));
            cal.push(ev(t, s));
        }
        assert_eq!(cal.len(), pushes.len());
        let order = |e: Event<()>| (e.time, e.seq);
        let from_heap: Vec<_> = std::iter::from_fn(|| heap.pop()).map(order).collect();
        let from_cal: Vec<_> = drain(&mut cal).into_iter().map(order).collect();
        assert_eq!(from_cal, from_heap);
        assert!(cal.is_empty());
    }

    #[test]
    fn calendar_peek_is_the_next_pop() {
        let mut cal = CalendarQueue::new();
        cal.push(ev(20, 1));
        cal.push(ev(10, 2));
        assert_eq!(cal.peek().map(|e| e.seq), Some(2));
        let (_, bucket) = cal.pop_bucket().expect("non-empty");
        assert_eq!(bucket.front().map(|e| e.seq), Some(2));
        assert_eq!(cal.peek().map(|e| e.seq), Some(1));
    }

    #[test]
    fn corrupt_broadcasts_from_visits_only_the_senders_payloads_in_order() {
        let bcast = |time: u64, seq: u64, from: u32, payload: u64| Event {
            time: SimTime(time),
            seq,
            kind: EventKind::Broadcast {
                from,
                message: payload,
                recipients: vec![99],
            },
        };
        let mut cal = CalendarQueue::new();
        cal.push(bcast(30, 1, 7, 300));
        cal.push(bcast(10, 2, 7, 100));
        cal.push(bcast(20, 3, 8, 200));
        cal.push(Event {
            time: SimTime(10),
            seq: 4,
            kind: EventKind::SendTimer(7),
        });
        let mut seen = Vec::new();
        let visited = cal.corrupt_broadcasts_from(7, &mut |m: &mut u64| {
            seen.push(*m);
            *m += 1;
        });
        assert_eq!(visited, 2);
        assert_eq!(seen, [100, 300], "visited in (time, seq) order");
        // the payloads were mutated in place; node 8's was untouched
        let mut payloads = Vec::new();
        for e in drain(&mut cal) {
            if let EventKind::Broadcast { from, message, .. } = e.kind {
                payloads.push((from, message));
            }
        }
        assert_eq!(payloads, [(7, 101), (8, 200), (7, 301)]);
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
            time: SimTime(20),
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
        let (_, mut bucket) = cal.pop_bucket().expect("non-empty");
        let capacity = bucket.capacity();
        assert_eq!(bucket.drain(..).count(), 8);
        cal.recycle(bucket);
        cal.push(ev(20, 8));
        cal.push(ev(30, 9));
        let (time, bucket) = cal.pop_bucket().expect("the reused bucket");
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
        let (time, bucket) = cal.pop_bucket().expect("non-empty");
        assert_eq!(time, SimTime(10));
        assert_eq!(bucket.iter().map(|e| e.seq).collect::<Vec<_>>(), [1, 3]);
        assert_eq!(cal.len(), 1);
        let (time, bucket) = cal.pop_bucket().expect("second bucket");
        assert_eq!((time, bucket.len()), (SimTime(20), 1));
        assert!(cal.pop_bucket().is_none());
    }
}
