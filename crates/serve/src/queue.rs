//! Bounded admission queue with explicit backpressure.
//!
//! Admission is the first resilience boundary: the queue holds at most
//! `capacity` waiting requests, and a push into a full queue *must* shed
//! someone — which one is the [`ShedPolicy`]. Scheduling out of the
//! queue is earliest-deadline-first over *ready* entries (a retried
//! request is not ready until its backoff expires). All choices
//! tie-break on request id, so the queue's behaviour is a pure function
//! of its inputs.

use crate::report::RequestAcct;
use crate::server::Request;

/// Who gets shed when a request arrives at a full queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Drop the arriving request (classic tail drop).
    RejectNewest,
    /// Drop the longest-queued request and admit the arrival (the
    /// arrival is more likely to still meet its deadline).
    RejectOldest,
    /// Drop whichever waiting request (arrival included) has the
    /// earliest deadline — it is the least likely to be served in time,
    /// so shedding it wastes the least feasible work.
    ShedByDeadline,
}

impl ShedPolicy {
    /// Short name used in counters and manifests.
    pub fn name(self) -> &'static str {
        match self {
            ShedPolicy::RejectNewest => "reject-newest",
            ShedPolicy::RejectOldest => "reject-oldest",
            ShedPolicy::ShedByDeadline => "shed-by-deadline",
        }
    }
}

/// A queue entry: the request plus its retry state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Queued {
    /// The request being served.
    pub req: Request,
    /// Attempts already made (0 for a fresh arrival).
    pub attempts: u32,
    /// Earliest tick this entry may be dispatched (backoff gate; 0 for
    /// fresh arrivals).
    pub not_before: u64,
    /// The cycle-accounting timeline behind the request's span tree.
    pub acct: RequestAcct,
}

impl Queued {
    /// Wraps a fresh arrival.
    pub fn fresh(req: Request) -> Self {
        let acct = RequestAcct::new(req.arrival);
        Queued { req, attempts: 0, not_before: 0, acct }
    }
}

/// The bounded admission queue. Entries are kept in EDF order, sorted
/// by `(deadline, id)`, so the earliest deadline is always the front.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    capacity: usize,
    policy: ShedPolicy,
    entries: Vec<Queued>,
}

/// The EDF sort key: deadline, then request id.
fn edf_key(q: &Queued) -> (u64, u64) {
    (q.req.deadline, q.req.id)
}

impl AdmissionQueue {
    /// An empty queue holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, policy: ShedPolicy) -> Self {
        AdmissionQueue::try_new(capacity, policy).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`AdmissionQueue::new`], for user-supplied
    /// capacities.
    ///
    /// # Errors
    ///
    /// Rejects a zero capacity (a queue that can hold nothing would shed
    /// every arrival).
    pub fn try_new(capacity: usize, policy: ShedPolicy) -> Result<Self, sc_core::Error> {
        if capacity == 0 {
            return Err(sc_core::Error::InvalidConfig {
                what: "admission queue".to_string(),
                reason: "capacity must be positive".to_string(),
            });
        }
        Ok(AdmissionQueue { capacity, policy, entries: Vec::with_capacity(capacity) })
    }

    /// Waiting entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured shed policy.
    pub fn policy(&self) -> ShedPolicy {
        self.policy
    }

    /// Queue occupancy in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        self.entries.len() as f64 / self.capacity as f64
    }

    /// Admits `entry`, shedding per policy if the queue is full. Returns
    /// the shed victim (possibly `entry` itself), or `None` if everyone
    /// fits.
    pub fn push(&mut self, entry: Queued) -> Option<Queued> {
        if self.entries.len() < self.capacity {
            self.insert(entry);
            return None;
        }
        let victim = match self.policy {
            ShedPolicy::RejectNewest => return Some(entry),
            // Longest-queued = smallest (arrival, id), anywhere in the
            // queue.
            ShedPolicy::RejectOldest => self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, q)| (q.req.arrival, q.req.id))
                .map(|(i, _)| i)
                .expect("full queue is non-empty"),
            // The tightest deadline is the front.
            ShedPolicy::ShedByDeadline if edf_key(&entry) <= edf_key(&self.entries[0]) => {
                return Some(entry)
            }
            ShedPolicy::ShedByDeadline => 0,
        };
        let victim = self.entries.remove(victim);
        self.insert(entry);
        Some(victim)
    }

    /// Removes and returns the ready entry (backoff expired at `now`)
    /// with the earliest deadline, id-tie-broken — EDF scheduling: the
    /// first ready entry in queue order.
    pub fn pop_ready(&mut self, now: u64) -> Option<Queued> {
        let i = self.entries.iter().position(|q| q.not_before <= now)?;
        Some(self.entries.remove(i))
    }

    /// Removes and returns every entry whose deadline has passed at
    /// `now` — a prefix of the queue — in id order.
    pub fn drop_expired(&mut self, now: u64) -> Vec<Queued> {
        let k = self.entries.partition_point(|q| q.req.deadline <= now);
        let mut expired: Vec<Queued> = self.entries.drain(..k).collect();
        expired.sort_by_key(|q| q.req.id);
        expired
    }

    /// Removes and returns every waiting entry, in id order — the
    /// recovery journal drain when a replica crashes: its queued work is
    /// re-dispatched deterministically onto live replicas.
    pub fn drain(&mut self) -> Vec<Queued> {
        let mut drained = std::mem::take(&mut self.entries);
        drained.sort_by_key(|q| q.req.id);
        drained
    }

    /// The earliest tick at which any waiting entry becomes ready, if
    /// the queue is non-empty.
    pub fn next_ready_at(&self) -> Option<u64> {
        self.entries.iter().map(|q| q.not_before).min()
    }

    /// The earliest deadline among waiting entries — the next tick at
    /// which [`Self::drop_expired`] would remove someone: the front's.
    pub fn next_deadline_at(&self) -> Option<u64> {
        self.entries.first().map(|q| q.req.deadline)
    }

    /// Iterates the waiting entries in EDF order. Used by fleet
    /// placement to price a replica's outstanding queued work in
    /// estimated cycles.
    pub fn iter(&self) -> impl Iterator<Item = &Queued> {
        self.entries.iter()
    }

    /// Inserts `entry` at its EDF position, after any equal key.
    fn insert(&mut self, entry: Queued) {
        let at = self.entries.partition_point(|q| edf_key(q) <= edf_key(&entry));
        self.entries.insert(at, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, arrival: u64, deadline: u64) -> Queued {
        Queued::fresh(Request { id, arrival, deadline, payload: 0 })
    }

    #[test]
    fn admits_until_capacity_then_sheds_newest() {
        let mut q = AdmissionQueue::new(2, ShedPolicy::RejectNewest);
        assert!(q.push(req(0, 0, 100)).is_none());
        assert!(q.push(req(1, 1, 100)).is_none());
        let victim = q.push(req(2, 2, 100)).expect("full queue sheds");
        assert_eq!(victim.req.id, 2);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn reject_oldest_evicts_longest_queued() {
        let mut q = AdmissionQueue::new(2, ShedPolicy::RejectOldest);
        q.push(req(0, 0, 100));
        q.push(req(1, 5, 100));
        let victim = q.push(req(2, 9, 100)).expect("sheds");
        assert_eq!(victim.req.id, 0);
        assert_eq!(q.len(), 2);
        assert!(q.pop_ready(10).is_some());
    }

    #[test]
    fn shed_by_deadline_drops_the_tightest_deadline() {
        let mut q = AdmissionQueue::new(2, ShedPolicy::ShedByDeadline);
        q.push(req(0, 0, 50));
        q.push(req(1, 1, 200));
        // Arrival with a looser deadline than the tightest queued entry:
        // the queued one goes.
        let victim = q.push(req(2, 2, 120)).expect("sheds");
        assert_eq!(victim.req.id, 0);
        // Arrival tighter than everyone queued: the arrival goes.
        let victim = q.push(req(3, 3, 60)).expect("sheds");
        assert_eq!(victim.req.id, 3);
    }

    #[test]
    fn pop_ready_is_edf_and_respects_backoff() {
        let mut q = AdmissionQueue::new(4, ShedPolicy::RejectNewest);
        q.push(req(0, 0, 300));
        q.push(req(1, 0, 100));
        let mut retried = req(2, 0, 50);
        retried.not_before = 40;
        q.push(retried);
        // At t=10 the tightest-deadline entry (id 2) is still in
        // backoff, so EDF picks id 1.
        assert_eq!(q.pop_ready(10).unwrap().req.id, 1);
        // At t=40 the retried entry is ready and wins.
        assert_eq!(q.pop_ready(40).unwrap().req.id, 2);
        assert_eq!(q.pop_ready(40).unwrap().req.id, 0);
        assert!(q.pop_ready(40).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn drop_expired_removes_past_deadlines_in_id_order() {
        let mut q = AdmissionQueue::new(4, ShedPolicy::RejectNewest);
        q.push(req(3, 0, 10));
        q.push(req(1, 0, 5));
        q.push(req(2, 0, 99));
        let expired = q.drop_expired(10);
        assert_eq!(expired.iter().map(|q| q.req.id).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(q.len(), 1);
    }

    /// The scan-based queue the EDF-ordered one replaced, kept as its
    /// model: entries in storage order, every read a scan.
    struct ScanQueue {
        capacity: usize,
        policy: ShedPolicy,
        entries: Vec<Queued>,
    }

    impl ScanQueue {
        fn push(&mut self, entry: Queued) -> Option<Queued> {
            if self.entries.len() < self.capacity {
                self.entries.push(entry);
                return None;
            }
            match self.policy {
                ShedPolicy::RejectNewest => Some(entry),
                ShedPolicy::RejectOldest => {
                    let oldest = self.min_index(|q| (q.req.arrival, q.req.id)).expect("full");
                    let victim = self.entries.swap_remove(oldest);
                    self.entries.push(entry);
                    Some(victim)
                }
                ShedPolicy::ShedByDeadline => {
                    let tightest = self.min_index(|q| (q.req.deadline, q.req.id)).expect("full");
                    let key = |q: &Queued| (q.req.deadline, q.req.id);
                    if key(&entry) <= key(&self.entries[tightest]) {
                        Some(entry)
                    } else {
                        let victim = self.entries.swap_remove(tightest);
                        self.entries.push(entry);
                        Some(victim)
                    }
                }
            }
        }

        fn pop_ready(&mut self, now: u64) -> Option<Queued> {
            let i = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, q)| q.not_before <= now)
                .min_by_key(|(_, q)| (q.req.deadline, q.req.id))
                .map(|(i, _)| i)?;
            Some(self.entries.swap_remove(i))
        }

        fn drop_expired(&mut self, now: u64) -> Vec<Queued> {
            let mut expired: Vec<Queued> = Vec::new();
            let mut i = 0;
            while i < self.entries.len() {
                if self.entries[i].req.deadline <= now {
                    expired.push(self.entries.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            expired.sort_by_key(|q| q.req.id);
            expired
        }

        fn drain(&mut self) -> Vec<Queued> {
            let mut drained = std::mem::take(&mut self.entries);
            drained.sort_by_key(|q| q.req.id);
            drained
        }

        fn next_ready_at(&self) -> Option<u64> {
            self.entries.iter().map(|q| q.not_before).min()
        }

        fn next_deadline_at(&self) -> Option<u64> {
            self.entries.iter().map(|q| q.req.deadline).min()
        }

        fn min_index<K: Ord>(&self, key: impl Fn(&Queued) -> K) -> Option<usize> {
            self.entries.iter().enumerate().min_by_key(|(_, q)| key(q)).map(|(i, _)| i)
        }
    }

    /// Entries sorted by id: the queue's contents, whatever its order.
    fn by_id(entries: &[Queued]) -> Vec<Queued> {
        let mut v = entries.to_vec();
        v.sort_by_key(|q| q.req.id);
        v
    }

    /// Runs one seeded sequence of queue operations against the EDF
    /// queue and its scan model, asserting equal returns and contents
    /// after every step. Deadlines and arrivals come from a few ticks,
    /// so keys tie often; a popped or shed entry may come back under its
    /// own id with a backoff gate, as a retry does; drains are rare.
    fn model_sequence(seed: u64) {
        let mut rng = sc_core::rng::SmallRng::seed_from_u64(seed);
        let policy =
            [ShedPolicy::RejectNewest, ShedPolicy::RejectOldest, ShedPolicy::ShedByDeadline]
                [(seed % 3) as usize];
        let capacity = rng.gen_range_usize(1..7);
        let mut q = AdmissionQueue::new(capacity, policy);
        let mut model = ScanQueue { capacity, policy, entries: Vec::new() };
        let (mut now, mut next_id) = (0u64, 0u64);
        let mut out: Vec<Queued> = Vec::new();
        for step in 0..80 {
            let ctx = format!("seed {seed} step {step} ({})", policy.name());
            match rng.gen_range_u64(0..16) {
                0..=6 => {
                    let entry = match out.len() {
                        n if n > 0 && rng.gen_bool(0.3) => {
                            let mut e = out.swap_remove(rng.gen_range_usize(0..n));
                            e.attempts += 1;
                            e.not_before = now + rng.gen_range_u64(0..4);
                            e
                        }
                        _ => {
                            next_id += 1;
                            let arrival = now.saturating_sub(rng.gen_range_u64(0..3));
                            let mut e = req(next_id, arrival, now + rng.gen_range_u64(0..6));
                            e.not_before = if rng.gen_bool(0.3) { now + 2 } else { 0 };
                            e
                        }
                    };
                    let (a, b) = (q.push(entry.clone()), model.push(entry));
                    assert_eq!(a, b, "{ctx}: push");
                    out.extend(a);
                }
                7..=10 => {
                    let (a, b) = (q.pop_ready(now), model.pop_ready(now));
                    assert_eq!(a, b, "{ctx}: pop_ready");
                    out.extend(a);
                }
                11..=12 => {
                    let (a, b) = (q.drop_expired(now), model.drop_expired(now));
                    assert_eq!(a, b, "{ctx}: drop_expired");
                }
                13 if rng.gen_bool(0.2) => {
                    let (a, b) = (q.drain(), model.drain());
                    assert_eq!(a, b, "{ctx}: drain");
                    out.extend(a);
                }
                _ => now += rng.gen_range_u64(0..3),
            }
            // Returned entries may be re-pushed only under a fresh
            // deadline past `now`, as a live request could be.
            out.retain(|e| e.req.deadline > now);
            assert_eq!(q.next_ready_at(), model.next_ready_at(), "{ctx}: next_ready_at");
            assert_eq!(q.next_deadline_at(), model.next_deadline_at(), "{ctx}: next_deadline_at");
            assert_eq!(q.len(), model.entries.len(), "{ctx}: len");
            assert_eq!(by_id(&q.entries), by_id(&model.entries), "{ctx}: contents");
            assert!(
                q.entries.windows(2).all(|w| edf_key(&w[0]) <= edf_key(&w[1])),
                "{ctx}: EDF order"
            );
        }
    }

    #[test]
    fn edf_queue_matches_the_scan_model() {
        for seed in 0..1_000 {
            model_sequence(seed);
        }
    }

    /// The long model pass; `scripts/ci.sh` runs it in release.
    #[test]
    #[ignore = "long model pass: cargo test --release -p sc-serve --lib -- --ignored"]
    fn edf_queue_matches_the_scan_model_long() {
        for seed in 0..50_000 {
            model_sequence(seed);
        }
    }

    #[test]
    fn next_ready_at_is_min_backoff_gate() {
        let mut q = AdmissionQueue::new(4, ShedPolicy::RejectNewest);
        assert_eq!(q.next_ready_at(), None);
        let mut a = req(0, 0, 100);
        a.not_before = 30;
        let mut b = req(1, 0, 100);
        b.not_before = 20;
        q.push(a);
        q.push(b);
        assert_eq!(q.next_ready_at(), Some(20));
    }
}
