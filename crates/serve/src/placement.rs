//! Deterministic request → replica placement for the serving fleet.
//!
//! Placement is rendezvous (highest-random-weight) hashing: every
//! `(request, replica)` pair gets a pure-function score, and a request's
//! candidate order is its replicas sorted by descending score. Adding or
//! removing one replica therefore only moves the requests that scored it
//! highest — the consistent-hashing property — without a vnode ring.
//!
//! Scores are quantized to a small number of buckets before ranking so
//! that near-ties are *real* ties, and ties break on the replicas'
//! current load measured on the virtual cycle clock (queued work plus
//! remaining in-flight work, in estimated cycles), then on replica
//! index. The hash keeps placement sticky per request id; the load
//! tiebreak lets the fleet lean away from a busy replica when the hash
//! is indifferent; and every input is virtual-clock state, so the
//! choice is bitwise reproducible.

use std::cmp::Reverse;

use sc_fault::split_mix;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Rendezvous-hash placement over `replicas` shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    seed: u64,
    replicas: usize,
}

/// Score buckets used for ranking: the top `BUCKET_BITS` bits of the
/// 64-bit rendezvous score. Coarse enough that same-bucket collisions
/// happen at a useful rate (so the load tiebreak has teeth), fine
/// enough that the hash still dominates placement.
const BUCKET_BITS: u32 = 4;

impl Placement {
    /// A placement over `replicas` shards, scored under `seed`.
    pub fn new(seed: u64, replicas: usize) -> Placement {
        Placement { seed, replicas }
    }

    /// Number of replicas being placed over.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The raw rendezvous score of `(request_id, replica)` — a pure
    /// function of the seed and both ids.
    pub fn score(&self, request_id: u64, replica: usize) -> u64 {
        self.mixed_score(split_mix(request_id ^ GOLDEN), replica)
    }

    /// [`Placement::score`] from the request id's own mix,
    /// `split_mix(request_id ^ GOLDEN)`, which a ranking hashes once.
    fn mixed_score(&self, id_mix: u64, replica: usize) -> u64 {
        split_mix(self.seed ^ id_mix ^ (replica as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The quantized score bucket of `(request_id, replica)` — the top
    /// `BUCKET_BITS` bits of the score, in `0..16`. This is the same
    /// quantization [`Placement::rank`] sorts on; the recovery
    /// subsystem's probation ladder admits a probing replica for score
    /// buckets below its current stage threshold, so the admitted
    /// fraction ramps in sixteenths.
    pub fn bucket(&self, request_id: u64, replica: usize) -> u64 {
        self.score(request_id, replica) >> (64 - BUCKET_BITS)
    }

    /// Every replica, ranked best-first for `request_id`: by quantized
    /// rendezvous score (descending), then ascending load (the
    /// cycle-clock tiebreak; `loads[r]` is replica `r`'s outstanding
    /// work in estimated cycles), then ascending replica index.
    ///
    /// # Panics
    ///
    /// Panics if `loads.len()` differs from the replica count.
    pub fn rank(&self, request_id: u64, loads: &[u64]) -> Vec<usize> {
        assert_eq!(loads.len(), self.replicas, "one load per replica");
        let mut keys = Vec::with_capacity(self.replicas);
        self.rank_into(request_id, |r| loads[r], &mut keys);
        keys.into_iter().map(|k| k.replica).collect()
    }

    /// [`Placement::rank`] into a reused buffer, with replica `r`'s load
    /// read as `load(r)`: `keys` ends holding one key per replica,
    /// best-first. Each key is computed once, and the request id is
    /// hashed once per ranking.
    pub(crate) fn rank_into(
        &self,
        request_id: u64,
        load: impl Fn(usize) -> u64,
        keys: &mut Vec<RankKey>,
    ) {
        let id_mix = split_mix(request_id ^ GOLDEN);
        keys.clear();
        keys.extend((0..self.replicas).map(|replica| RankKey {
            bucket: Reverse(self.mixed_score(id_mix, replica) >> (64 - BUCKET_BITS)),
            load: load(replica),
            replica,
        }));
        // Keys differ in `replica`, so an unstable sort is exact.
        keys.sort_unstable();
    }
}

/// One replica's place in a ranking, ordered as [`Placement::rank`]
/// orders replicas: score bucket descending, then load, then index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct RankKey {
    /// The quantized score bucket ([`Placement::bucket`]), reversed.
    pub(crate) bucket: Reverse<u64>,
    /// Outstanding work in estimated cycles.
    pub(crate) load: u64,
    /// The replica's index.
    pub(crate) replica: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_is_a_pure_function() {
        let p = Placement::new(7, 5);
        let loads = [10, 0, 3, 99, 5];
        for id in 0..50 {
            assert_eq!(p.rank(id, &loads), p.rank(id, &loads));
        }
        assert_ne!(
            Placement::new(8, 5).rank(3, &loads),
            p.rank(3, &loads),
            "a different seed must reshuffle at least some request"
        );
    }

    #[test]
    fn ranking_keys_once_matches_scoring_in_every_comparison() {
        // The sort `rank` made before it computed each key once: two
        // scores per comparison, a stable sort on (bucket desc, load,
        // index).
        let p = Placement::new(0x5EED, 6);
        for id in 0..2_000u64 {
            let loads: Vec<u64> = (0..6).map(|r| (id * 7 + r) % 3).collect();
            let mut scored: Vec<usize> = (0..6).collect();
            scored.sort_by_key(|&r| (Reverse(p.bucket(id, r)), loads[r], r));
            assert_eq!(p.rank(id, &loads), scored, "request {id}");
        }
    }

    #[test]
    fn every_rank_is_a_permutation() {
        let p = Placement::new(0xF1EE7, 7);
        let loads = [0u64; 7];
        for id in 0..200 {
            let mut r = p.rank(id, &loads);
            r.sort_unstable();
            assert_eq!(r, (0..7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn placement_spreads_requests_across_replicas() {
        let p = Placement::new(42, 4);
        let loads = [0u64; 4];
        let mut counts = [0usize; 4];
        for id in 0..4000 {
            counts[p.rank(id, &loads)[0]] += 1;
        }
        for (r, &c) in counts.iter().enumerate() {
            assert!(
                (500..=1600).contains(&c),
                "replica {r} got {c} of 4000 top placements — not spread"
            );
        }
    }

    #[test]
    fn load_breaks_quantized_score_ties_toward_the_idler_replica() {
        let p = Placement::new(9, 8);
        // Find a request whose top two buckets tie; with 4-bit buckets
        // over 8 replicas one exists in any small id range.
        let bucket = |id: u64, r: usize| p.score(id, r) >> (64 - BUCKET_BITS);
        let id = (0..10_000u64)
            .find(|&id| {
                let mut b: Vec<u64> = (0..8).map(|r| bucket(id, r)).collect();
                b.sort_unstable_by(|x, y| y.cmp(x));
                b[0] == b[1]
            })
            .expect("a tied top bucket exists");
        let tied: Vec<usize> = (0..8)
            .filter(|&r| bucket(id, r) == (0..8).map(|q| bucket(id, q)).max().unwrap())
            .collect();
        // Loading every tied replica except one must hand that one the
        // top slot.
        let winner = tied[tied.len() - 1];
        let mut loads = [0u64; 8];
        for &r in &tied {
            if r != winner {
                loads[r] = 1_000;
            }
        }
        assert_eq!(p.rank(id, &loads)[0], winner);
    }

    #[test]
    fn removing_a_replica_only_moves_its_own_requests() {
        // The consistent-hashing property, stated over the top choice:
        // requests whose 5-replica top pick is not replica 4 keep the
        // same top pick when ranked over the first 4 replicas only.
        let five = Placement::new(3, 5);
        let four = Placement::new(3, 4);
        for id in 0..2000 {
            let top5 = five.rank(id, &[0; 5])[0];
            if top5 != 4 {
                assert_eq!(four.rank(id, &[0; 4])[0], top5, "request {id} moved needlessly");
            }
        }
    }
}
