//! Deterministic causal tracing on the virtual cycle clock.
//!
//! Wall-clock tracing ([`crate::span`](mod@crate::span)) answers "what is the process
//! doing right now"; this module answers "where did this request's
//! *cycles* go". A [`SpanTree`] is an explicit, data-first span tree on
//! the virtual clock: the serving layer mints a [`TraceId`] per request
//! at admission and builds the tree as the request moves through queue
//! wait, backoff, breaker decisions, failed attempts, and backend
//! service; the accelerator contributes per-tile breakdowns through
//! [`BackendProfile`].
//!
//! Identifiers carry **no wall clock and no thread identity**:
//! [`TraceId::derive`] mixes only the configured trace seed and the
//! request id, and span ids mix the trace id, the span's name, and its
//! insertion index. Two runs of the same workload therefore produce
//! bitwise-identical trees at any `SC_THREADS` — the property the
//! determinism suite asserts.
//!
//! ## The attribution invariant
//!
//! A well-formed tree ([`SpanTree::validate`]) tiles every parent span
//! *exactly* with its children: siblings are chronological, gap-free,
//! and end where the parent ends. Leaf spans therefore partition the
//! root, so [`SpanTree::attribution`] — leaf cycles bucketed by
//! [`CycleCategory`] — sums to the root's duration with no lost or
//! double-counted cycles. The serving layer asserts this per request.

use std::sync::OnceLock;

use crate::metrics::{counter, Counter};

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: a bijective avalanche over `u64`, and the
/// workspace's one counter-keyed RNG: every deterministic draw (trace
/// and span ids, [`crate::obs`] reservoir and exemplar picks, sc-fault's
/// site draws, sc-serve's placement and retry jitter) is
/// `split_mix(key ^ counter mixes)`, a pure function of its inputs.
/// It lives here because `sc-telemetry` sits below every other crate.
#[inline]
pub fn split_mix(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The FNV-1a offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// One FNV-1a absorption step: folds `bytes` into the running hash `h`
/// (start from [`FNV_OFFSET`]). Stable, order-sensitive, no allocation.
#[inline]
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a over a name (a fault site, a span, an objective).
pub fn fnv1a(s: &str) -> u64 {
    fnv1a_extend(FNV_OFFSET, s.as_bytes())
}

/// FNV-1a over a fingerprint: each word's little-endian bytes in order,
/// so the digest is order-sensitive.
pub fn fnv1a_words(words: &[u64]) -> u64 {
    words.iter().fold(FNV_OFFSET, |h, w| fnv1a_extend(h, &w.to_le_bytes()))
}

/// Identity of one causal trace (= one request's lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Derives the trace id for `request_id` under `seed` — a pure
    /// function of its inputs, so re-running a workload reproduces every
    /// id bitwise.
    pub fn derive(seed: u64, request_id: u64) -> TraceId {
        TraceId(split_mix(seed ^ split_mix(request_id ^ GOLDEN)))
    }
}

/// Identity of one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// Derives a span id from the owning trace, the span name, and the
    /// span's insertion index within the tree.
    pub fn derive(trace: TraceId, name: &str, seq: u64) -> SpanId {
        SpanId(split_mix(trace.0 ^ fnv1a(name) ^ seq.wrapping_mul(GOLDEN)))
    }
}

/// Where a span's cycles belong. Structural categories group; the rest
/// are the attribution buckets the profiler sums over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CycleCategory {
    /// Structural root: one request, admission to finalization.
    Request,
    /// Waiting in the admission queue for the backend.
    QueueWait,
    /// Waiting out a retry backoff gate.
    BackoffWait,
    /// A circuit-breaker fail-fast decision (zero-length marker).
    Breaker,
    /// A failed backend attempt burning its fault-detection latency.
    FailureDetect,
    /// Structural: one successful backend dispatch window.
    Service,
    /// Structural: one layer inside a service window.
    Layer,
    /// Structural: one tile inside a layer.
    Tile,
    /// SNG/FSM stream generation + up/down counting — the MAC-stream
    /// execution proper (generation and counting share each cycle in
    /// both datapaths, so they are one bucket).
    MacStream,
    /// DMR recompute-and-compare verification replicas.
    DmrVerify,
    /// Truncated-stream (EDT) degraded recompute after retry exhaustion.
    EdtRecompute,
    /// Parity scrub-on-read repairs. Billed zero cycles in this model —
    /// the scrub rides the SRAM read port — but kept in the taxonomy so
    /// the accounting is explicit about it.
    ParityScrub,
    /// Replica cycles burned on the losing side of a hedged request (or
    /// on a superseded attempt's overlap with its adopter). Concurrent
    /// with the foreground timeline: these spans sit *beside* the
    /// critical path, so a request's attribution sums to
    /// `latency + hedge_wasted`.
    HedgeWasted,
    /// Cycles a request spent stranded on a crashed replica before the
    /// recovery subsystem replayed it onto a live one. Concurrent with
    /// the foreground timeline for the same reason as
    /// [`CycleCategory::HedgeWasted`]: the stranded window overlaps the
    /// request's own queue-wait accounting, so it sits beside the
    /// critical path and the identity
    /// `total() == latency + concurrent_total()` still holds exactly.
    RecoveryReplay,
}

impl CycleCategory {
    /// Every category, in stable `code()` order.
    pub const ALL: [CycleCategory; 14] = [
        CycleCategory::Request,
        CycleCategory::QueueWait,
        CycleCategory::BackoffWait,
        CycleCategory::Breaker,
        CycleCategory::FailureDetect,
        CycleCategory::Service,
        CycleCategory::Layer,
        CycleCategory::Tile,
        CycleCategory::MacStream,
        CycleCategory::DmrVerify,
        CycleCategory::EdtRecompute,
        CycleCategory::ParityScrub,
        CycleCategory::HedgeWasted,
        CycleCategory::RecoveryReplay,
    ];

    /// Stable small code (the index in [`CycleCategory::ALL`]).
    pub fn code(self) -> u64 {
        CycleCategory::ALL.iter().position(|&c| c == self).expect("category in ALL") as u64
    }

    /// Short name used in counters, Chrome-trace `cat` fields, and
    /// manifests.
    pub fn name(self) -> &'static str {
        match self {
            CycleCategory::Request => "request",
            CycleCategory::QueueWait => "queue_wait",
            CycleCategory::BackoffWait => "backoff_wait",
            CycleCategory::Breaker => "breaker",
            CycleCategory::FailureDetect => "failure_detect",
            CycleCategory::Service => "service",
            CycleCategory::Layer => "layer",
            CycleCategory::Tile => "tile",
            CycleCategory::MacStream => "mac_stream",
            CycleCategory::DmrVerify => "dmr_verify",
            CycleCategory::EdtRecompute => "edt_recompute",
            CycleCategory::ParityScrub => "parity_scrub",
            CycleCategory::HedgeWasted => "hedge_wasted",
            CycleCategory::RecoveryReplay => "recovery_replay",
        }
    }

    /// Whether the category only groups children (its own cycles live in
    /// its leaves).
    pub fn is_structural(self) -> bool {
        matches!(
            self,
            CycleCategory::Request
                | CycleCategory::Service
                | CycleCategory::Layer
                | CycleCategory::Tile
        )
    }

    /// Whether spans of this category run *concurrently* with the
    /// foreground timeline (a hedge racing the primary attempt). A
    /// concurrent child is exempt from the contiguous-tiling check —
    /// it only has to lie within its parent's bounds — and its cycles
    /// land *on top of* the foreground attribution.
    pub fn is_concurrent(self) -> bool {
        matches!(self, CycleCategory::HedgeWasted | CycleCategory::RecoveryReplay)
    }
}

/// Cycles bucketed by [`CycleCategory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleAttribution {
    counts: [u64; CycleCategory::ALL.len()],
}

impl CycleAttribution {
    /// The all-zero attribution.
    pub fn new() -> CycleAttribution {
        CycleAttribution::default()
    }

    /// Adds `cycles` to `category`.
    pub fn add(&mut self, category: CycleCategory, cycles: u64) {
        self.counts[category.code() as usize] += cycles;
    }

    /// Cycles attributed to `category`.
    pub fn get(&self, category: CycleCategory) -> u64 {
        self.counts[category.code() as usize]
    }

    /// Total attributed cycles across every bucket.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Cycles in concurrent buckets ([`CycleCategory::is_concurrent`])
    /// — the shadow work beside the critical path. For a well-formed
    /// request trace, `total() == latency + concurrent_total()`.
    pub fn concurrent_total(&self) -> u64 {
        CycleCategory::ALL.iter().filter(|c| c.is_concurrent()).map(|&c| self.get(c)).sum()
    }

    /// Folds another attribution into this one.
    pub fn merge(&mut self, other: &CycleAttribution) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Iterates the non-zero buckets in stable category order.
    pub fn iter(&self) -> impl Iterator<Item = (CycleCategory, u64)> + '_ {
        CycleCategory::ALL.iter().map(move |&c| (c, self.get(c))).filter(|&(_, cycles)| cycles > 0)
    }

    /// Flat form for fingerprints.
    pub fn fingerprint(&self) -> Vec<u64> {
        self.counts.to_vec()
    }
}

/// One span on the virtual cycle clock: `[start, end)` half-open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleSpan {
    /// Deterministic span identity.
    pub id: SpanId,
    /// Parent span (`None` only for the root).
    pub parent: Option<SpanId>,
    /// Display name (low-cardinality; ids go in trace-event args).
    pub name: String,
    /// Attribution/category tag.
    pub category: CycleCategory,
    /// First cycle covered.
    pub start: u64,
    /// One past the last cycle covered (`end == start` is a zero-length
    /// marker, e.g. a breaker rejection).
    pub end: u64,
}

impl CycleSpan {
    /// The span's duration in cycles.
    pub fn cycles(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A complete request trace: a root span plus nested children, stored in
/// insertion (= chronological) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTree {
    trace: TraceId,
    spans: Vec<CycleSpan>,
}

impl SpanTree {
    /// A tree holding just the root span.
    pub fn new(
        trace: TraceId,
        name: impl Into<String>,
        category: CycleCategory,
        start: u64,
        end: u64,
    ) -> SpanTree {
        let name = name.into();
        let id = SpanId::derive(trace, &name, 0);
        SpanTree { trace, spans: vec![CycleSpan { id, parent: None, name, category, start, end }] }
    }

    /// The owning trace id.
    pub fn trace_id(&self) -> TraceId {
        self.trace
    }

    /// The root span.
    pub fn root(&self) -> &CycleSpan {
        &self.spans[0]
    }

    /// Every span, insertion-ordered (root first; children chronological
    /// under each parent).
    pub fn spans(&self) -> &[CycleSpan] {
        &self.spans
    }

    /// Appends a child of `parent` covering `[start, end)` and returns
    /// its id — the asserting form of [`SpanTree::try_add`], for
    /// statically-known parents.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not in the tree.
    pub fn add(
        &mut self,
        parent: SpanId,
        name: impl Into<String>,
        category: CycleCategory,
        start: u64,
        end: u64,
    ) -> SpanId {
        match self.try_add(parent, name, category, start, end) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Appends a child of `parent` covering `[start, end)` and returns
    /// its id.
    ///
    /// # Errors
    ///
    /// Returns a description naming the missing parent if `parent` is
    /// not in the tree, so externally-assembled trees surface bad span
    /// references as errors instead of panics.
    pub fn try_add(
        &mut self,
        parent: SpanId,
        name: impl Into<String>,
        category: CycleCategory,
        start: u64,
        end: u64,
    ) -> Result<SpanId, String> {
        let name = name.into();
        if !self.spans.iter().any(|s| s.id == parent) {
            return Err(format!(
                "parent span {:?} of {:?} does not exist in trace {:?}",
                parent, name, self.trace
            ));
        }
        let id = SpanId::derive(self.trace, &name, self.spans.len() as u64);
        self.spans.push(CycleSpan { id, parent: Some(parent), name, category, start, end });
        Ok(id)
    }

    /// The direct children of `id`, in insertion order.
    pub fn children(&self, id: SpanId) -> impl Iterator<Item = &CycleSpan> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Root duration.
    pub fn total_cycles(&self) -> u64 {
        self.root().cycles()
    }

    /// Sum of leaf-span durations — the cycles the tree explains.
    pub fn leaf_cycles(&self) -> u64 {
        self.leaves().map(CycleSpan::cycles).sum()
    }

    /// Leaf cycles bucketed by category.
    pub fn attribution(&self) -> CycleAttribution {
        let mut attr = CycleAttribution::new();
        for leaf in self.leaves() {
            attr.add(leaf.category, leaf.cycles());
        }
        attr
    }

    fn leaves(&self) -> impl Iterator<Item = &CycleSpan> {
        self.spans.iter().filter(|s| !self.spans.iter().any(|c| c.parent == Some(s.id)))
    }

    /// Checks the structural invariant: span ids unique, exactly one
    /// root, every span well-ordered (`start ≤ end`), and every parent
    /// tiled *exactly* by its non-concurrent children — chronological,
    /// gap-free, ending where the parent ends. Concurrent children
    /// ([`CycleCategory::is_concurrent`], e.g. the losing side of a
    /// hedged request) are exempt from the tiling: they only have to lie
    /// within the parent's bounds. A valid tree's foreground leaves
    /// therefore partition the root, which is what makes
    /// [`SpanTree::attribution`] sum to
    /// `total_cycles + concurrent leaf cycles` with nothing lost or
    /// double-counted.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.start > s.end {
                return Err(format!("span {:?} ({}) ends before it starts", s.id, s.name));
            }
            if self.spans.iter().skip(i + 1).any(|t| t.id == s.id) {
                return Err(format!("duplicate span id {:?}", s.id));
            }
            match s.parent {
                None if i != 0 => return Err(format!("second root at index {i}")),
                Some(p) if !self.spans.iter().any(|t| t.id == p) => {
                    return Err(format!("span {:?} has unknown parent {:?}", s.id, p));
                }
                _ => {}
            }
        }
        for parent in &self.spans {
            let kids: Vec<&CycleSpan> = self.children(parent.id).collect();
            if kids.is_empty() {
                continue;
            }
            for k in kids.iter().filter(|k| k.category.is_concurrent()) {
                if k.start < parent.start || k.end > parent.end {
                    return Err(format!(
                        "concurrent child {} of {} ([{}, {})) overhangs the parent ([{}, {}))",
                        k.name, parent.name, k.start, k.end, parent.start, parent.end
                    ));
                }
            }
            let foreground: Vec<&&CycleSpan> =
                kids.iter().filter(|k| !k.category.is_concurrent()).collect();
            if foreground.is_empty() {
                continue;
            }
            let mut cursor = parent.start;
            for k in &foreground {
                if k.start != cursor {
                    return Err(format!(
                        "child {} of {} starts at {} (expected {cursor}): children must tile \
                         the parent contiguously",
                        k.name, parent.name, k.start
                    ));
                }
                cursor = k.end;
            }
            if cursor != parent.end {
                return Err(format!(
                    "children of {} end at {cursor}, parent ends at {}",
                    parent.name, parent.end
                ));
            }
        }
        Ok(())
    }

    /// Flattens the tree — ids, categories, bounds, name hashes — into a
    /// `Vec<u64>` for bitwise-determinism assertions.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut fp = vec![self.trace.0, self.spans.len() as u64];
        for s in &self.spans {
            fp.extend([
                s.id.0,
                s.parent.map_or(0, |p| p.0),
                s.category.code(),
                s.start,
                s.end,
                fnv1a(&s.name),
            ]);
        }
        fp
    }
}

/// Per-tile cycle breakdown reported by the accelerator. The three cycle
/// buckets sum exactly to the tile's billed cycles; `edt_saved` is
/// informational (cycles the truncated stream saved versus the
/// full-precision serial schedule) and outside the sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TileProfile {
    /// MAC-stream cycles of the accepted compute (full-precision or
    /// layer-wide EDT tier).
    pub compute: u64,
    /// DMR verification replica cycles.
    pub verify: u64,
    /// Degraded (EDT) recompute cycles after retry exhaustion.
    pub recompute: u64,
    /// Cycles saved by stream truncation versus the full serial stream.
    pub edt_saved: u64,
}

impl TileProfile {
    /// Total billed cycles: `compute + verify + recompute`.
    pub fn cycles(&self) -> u64 {
        self.compute + self.verify + self.recompute
    }
}

/// Per-layer breakdown: a name plus its tiles in canonical order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerProfile {
    /// Layer label (e.g. `conv0`).
    pub name: String,
    /// Tile breakdowns in the canonical `(m1, r1, c1)` enumeration.
    pub tiles: Vec<TileProfile>,
}

impl LayerProfile {
    /// Total layer cycles (sum of tile totals).
    pub fn cycles(&self) -> u64 {
        self.tiles.iter().map(TileProfile::cycles).sum()
    }
}

/// What one backend call reports about where its service cycles went.
/// Layers (and tiles within them) execute sequentially on the modelled
/// accelerator, so a profile whose total matches the service window lays
/// out contiguously inside it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BackendProfile {
    /// Layers in execution order.
    pub layers: Vec<LayerProfile>,
}

impl BackendProfile {
    /// A profile holding one layer.
    pub fn single_layer(name: impl Into<String>, tiles: Vec<TileProfile>) -> BackendProfile {
        BackendProfile { layers: vec![LayerProfile { name: name.into(), tiles }] }
    }

    /// Total profiled cycles.
    pub fn cycles(&self) -> u64 {
        self.layers.iter().map(LayerProfile::cycles).sum()
    }
}

/// Adds an attribution into the global `attr.cycles.<category>`
/// counters (non-structural categories only — structural spans' cycles
/// live in their leaves). The serving layer calls this once per
/// finalized request, so summed over a run the counters equal the summed
/// request latencies.
pub fn record_attribution(attr: &CycleAttribution) {
    static COUNTERS: OnceLock<Vec<(CycleCategory, Counter)>> = OnceLock::new();
    let counters = COUNTERS.get_or_init(|| {
        CycleCategory::ALL
            .iter()
            .filter(|c| !c.is_structural())
            .map(|&c| (c, counter(&format!("attr.cycles.{}", c.name()))))
            .collect()
    });
    for (category, c) in counters {
        c.incr(attr.get(*category));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_and_span_ids_are_pure_functions() {
        assert_eq!(TraceId::derive(7, 42), TraceId::derive(7, 42));
        assert_ne!(TraceId::derive(7, 42), TraceId::derive(7, 43));
        assert_ne!(TraceId::derive(7, 42), TraceId::derive(8, 42));
        let t = TraceId::derive(0, 0);
        assert_eq!(SpanId::derive(t, "x", 1), SpanId::derive(t, "x", 1));
        assert_ne!(SpanId::derive(t, "x", 1), SpanId::derive(t, "x", 2));
        assert_ne!(SpanId::derive(t, "x", 1), SpanId::derive(t, "y", 1));
    }

    #[test]
    fn category_codes_are_stable_indices() {
        for (i, c) in CycleCategory::ALL.iter().enumerate() {
            assert_eq!(c.code(), i as u64);
        }
    }

    fn sample_tree() -> SpanTree {
        let trace = TraceId::derive(1, 5);
        let mut tree = SpanTree::new(trace, "request 5", CycleCategory::Request, 100, 400);
        let root = tree.root().id;
        tree.add(root, "queue wait", CycleCategory::QueueWait, 100, 150);
        let svc = tree.add(root, "attempt 1", CycleCategory::Service, 150, 400);
        let layer = tree.add(svc, "conv0", CycleCategory::Layer, 150, 400);
        let tile = tree.add(layer, "tile 0", CycleCategory::Tile, 150, 400);
        tree.add(tile, "mac stream", CycleCategory::MacStream, 150, 380);
        tree.add(tile, "dmr verify", CycleCategory::DmrVerify, 380, 400);
        tree
    }

    #[test]
    fn valid_tree_partitions_root_exactly() {
        let tree = sample_tree();
        tree.validate().expect("well-formed");
        assert_eq!(tree.total_cycles(), 300);
        assert_eq!(tree.leaf_cycles(), 300);
        let attr = tree.attribution();
        assert_eq!(attr.get(CycleCategory::QueueWait), 50);
        assert_eq!(attr.get(CycleCategory::MacStream), 230);
        assert_eq!(attr.get(CycleCategory::DmrVerify), 20);
        assert_eq!(attr.total(), tree.total_cycles());
    }

    #[test]
    fn gaps_and_overhangs_fail_validation() {
        let trace = TraceId::derive(0, 1);
        let mut gap = SpanTree::new(trace, "r", CycleCategory::Request, 0, 100);
        let root = gap.root().id;
        gap.add(root, "a", CycleCategory::QueueWait, 0, 40);
        gap.add(root, "b", CycleCategory::Service, 50, 100);
        assert!(gap.validate().is_err(), "a 40..50 gap must fail");

        let mut short = SpanTree::new(trace, "r", CycleCategory::Request, 0, 100);
        let root = short.root().id;
        short.add(root, "a", CycleCategory::QueueWait, 0, 90);
        assert!(short.validate().is_err(), "children ending early must fail");
    }

    #[test]
    fn concurrent_spans_are_exempt_from_tiling_but_bounded() {
        let trace = TraceId::derive(0, 9);
        let mut tree = SpanTree::new(trace, "r", CycleCategory::Request, 0, 100);
        let root = tree.root().id;
        tree.add(root, "wait", CycleCategory::QueueWait, 0, 40);
        let svc = tree.add(root, "service", CycleCategory::Service, 40, 100);
        tree.add(svc, "mac stream", CycleCategory::MacStream, 40, 100);
        // A hedge loser overlapping the foreground timeline: valid as
        // long as it stays inside the parent.
        tree.add(root, "hedge loser", CycleCategory::HedgeWasted, 55, 100);
        tree.validate().expect("concurrent child inside the parent is valid");
        let attr = tree.attribution();
        assert_eq!(attr.get(CycleCategory::HedgeWasted), 45);
        assert_eq!(attr.concurrent_total(), 45);
        assert_eq!(attr.total(), tree.total_cycles() + attr.concurrent_total());

        // But it must not overhang the parent.
        let mut bad = SpanTree::new(trace, "r", CycleCategory::Request, 0, 100);
        let root = bad.root().id;
        bad.add(root, "wait", CycleCategory::QueueWait, 0, 100);
        bad.add(root, "hedge loser", CycleCategory::HedgeWasted, 90, 130);
        assert!(bad.validate().is_err(), "overhanging concurrent child must fail");
    }

    #[test]
    fn try_add_rejects_unknown_parents_without_panicking() {
        let trace = TraceId::derive(0, 3);
        let mut tree = SpanTree::new(trace, "r", CycleCategory::Request, 0, 10);
        let bogus = SpanId(0xDEAD_BEEF);
        let err = tree
            .try_add(bogus, "orphan", CycleCategory::QueueWait, 0, 10)
            .expect_err("unknown parent must be a typed error");
        assert!(err.contains("does not exist"), "error names the failure: {err}");
        assert_eq!(tree.spans().len(), 1, "failed add must not mutate the tree");
        let root = tree.root().id;
        tree.try_add(root, "child", CycleCategory::QueueWait, 0, 10).expect("valid parent");
        tree.validate().expect("well-formed after try_add");
    }

    #[test]
    fn recovery_replay_is_concurrent_like_hedge_wasted() {
        let trace = TraceId::derive(0, 4);
        let mut tree = SpanTree::new(trace, "r", CycleCategory::Request, 0, 100);
        let root = tree.root().id;
        tree.add(root, "wait", CycleCategory::QueueWait, 0, 100);
        // A replayed request's stranded window overlaps its own
        // queue-wait accounting — legal precisely because the category
        // is concurrent.
        tree.add(root, "recovery replay", CycleCategory::RecoveryReplay, 10, 60);
        tree.validate().expect("concurrent replay shadow is valid");
        let attr = tree.attribution();
        assert_eq!(attr.get(CycleCategory::RecoveryReplay), 50);
        assert_eq!(attr.concurrent_total(), 50);
        assert_eq!(attr.total(), tree.total_cycles() + attr.concurrent_total());
    }

    #[test]
    fn zero_length_markers_are_valid_between_siblings() {
        let trace = TraceId::derive(0, 2);
        let mut tree = SpanTree::new(trace, "r", CycleCategory::Request, 10, 30);
        let root = tree.root().id;
        tree.add(root, "wait", CycleCategory::QueueWait, 10, 20);
        tree.add(root, "breaker open", CycleCategory::Breaker, 20, 20);
        tree.add(root, "backoff", CycleCategory::BackoffWait, 20, 30);
        tree.validate().expect("zero-length markers tile trivially");
        assert_eq!(tree.attribution().total(), 20);
    }

    #[test]
    fn fingerprint_is_sensitive_to_structure_and_names() {
        let a = sample_tree();
        let mut b = sample_tree();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let root = b.root().id;
        b.add(root, "extra", CycleCategory::Breaker, 400, 400);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn profiles_sum_their_parts() {
        let t = TileProfile { compute: 10, verify: 20, recompute: 5, edt_saved: 99 };
        assert_eq!(t.cycles(), 35, "edt_saved is informational, not billed");
        let p = BackendProfile::single_layer("conv0", vec![t, TileProfile::default()]);
        assert_eq!(p.cycles(), 35);
        assert_eq!(p.layers[0].name, "conv0");
    }

    #[test]
    fn record_attribution_feeds_global_counters() {
        let _g = crate::test_guard();
        crate::metrics::reset();
        crate::metrics::set_enabled(true);
        let mut attr = CycleAttribution::new();
        attr.add(CycleCategory::QueueWait, 7);
        attr.add(CycleCategory::MacStream, 11);
        record_attribution(&attr);
        let snap = crate::metrics::snapshot();
        let get = |name: &str| {
            snap.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v).unwrap_or(0)
        };
        assert_eq!(get("attr.cycles.queue_wait"), 7);
        assert_eq!(get("attr.cycles.mac_stream"), 11);
        crate::metrics::set_enabled(false);
    }
}
