//! Deterministic observability plane: a bounded per-request event log.
//!
//! The serving layer finalizes 10⁵–10⁶ requests per storm, and BISC
//! latency is data-dependent (`t = Σ|2^(N-1)·w|`), so the latency
//! distribution is heavy-tailed *by construction* — the interesting
//! question is never "what was the mean" but "which requests made p99
//! spike, and where did their cycles go". This module answers it in
//! **O(windows + samples)** memory, not O(requests):
//!
//! * [`EventRecord`] — the one record of a finalized request, written
//!   once by the serving loop: trace id, replica (shard), [`Outcome`]
//!   (with the degradation tier of a completion), retries/hedges,
//!   arrival, deadline slack, latency, and the full per-category
//!   [`CycleAttribution`].
//! * [`ObsLog`] — the streaming accumulator. Each record updates
//!   tumbling virtual-clock windows (keyed on `finished_at / window`),
//!   per-dimension aggregates (outcome / tier / replica), a
//!   deterministic reservoir sample, an exact top-k-slowest set,
//!   per-latency-bucket **exemplars**, and a folded-stack profile —
//!   then is dropped. Each window, group and scenario total counts its
//!   records in a [`Tally`], the same aggregate sc-health's monitor
//!   keeps per window. Nothing in here scales with the request count.
//! * [`FoldedStacks`] — inferno/speedscope-compatible folded stacks
//!   (`frame;frame;frame cycles`) accumulated from request span trees;
//!   the input to differential cycle-flamegraph profiling.
//! * [`ObsView`] — the query engine over a written log:
//!   top-k-slowest-with-exemplars, attribution breakdowns, and
//!   windowed goodput/p99 series, all rendered as deterministic text.
//!
//! ## Determinism
//!
//! Every sampling decision is a counter-keyed SplitMix64 draw
//! (Algorithm R keyed on the per-stream record index — never wall
//! clock, never thread identity), and every aggregate lives in a
//! `BTreeMap`. Two runs of the same workload therefore serialize to
//! **byte-identical** logs at any `SC_THREADS` — the property the ci.sh
//! obs gate asserts. (`SC_ENGINE` reaches only `sc-rtlsim`'s cycle walk,
//! which the serving path never runs.)
//!
//! ## Latency semantics
//!
//! Counts cover every finalization; latency statistics (buckets,
//! quantiles, exemplars, top-k) cover **completed** requests only,
//! matching the `serve.latency` registry histogram and
//! `latency_percentile` on the serve reports.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::metrics::{log2_bounds, rank_bucket, window_span, Outcome, Tally};
use crate::trace::{fnv1a, split_mix, CycleAttribution, CycleCategory, SpanTree};

/// Schema version stamped into the event-log header (and validated by
/// the ci.sh obs gate alongside the manifest schema).
pub const OBS_SCHEMA_VERSION: u64 = 1;

fn hex_trace(t: u64) -> String {
    format!("0x{t:016x}")
}

fn parse_hex_trace(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

/// The one record of a finalized request — everything a post-mortem
/// needs, nothing request-sized (no span tree, no payload data). The
/// serving loop writes it once, as the request's response; health
/// windows, incident snapshots and the obs log all read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Request id.
    pub id: u64,
    /// The request's deterministic [`crate::TraceId`] bits.
    pub trace: u64,
    /// Replica (shard) that finalized the request; `None` when it died
    /// on arrival, before reaching one, and in the event records of a
    /// single unsharded server.
    pub replica: Option<u64>,
    /// Terminal outcome; a completion carries its degradation tier.
    pub outcome: Outcome,
    /// Dispatch attempts made (0 if the request never reached one).
    pub attempts: u64,
    /// Whether a hedge duplicate was ever launched for this request.
    pub hedged: bool,
    /// Whether a hedge duplicate won the race outright.
    pub hedge_won: bool,
    /// Arrival tick on the virtual clock.
    pub arrival: u64,
    /// Finalization tick on the virtual clock.
    pub finished_at: u64,
    /// `finished_at − arrival`: sojourn time in ticks.
    pub latency: u64,
    /// `deadline − finished_at`: non-negative when the request beat its
    /// deadline, negative when it was finalized past it. Taken in i128
    /// and saturated to i64, so a request without a deadline
    /// (`u64::MAX`) reads `i64::MAX`, never missed.
    pub deadline_slack: i64,
    /// Where every latency cycle went, bucketed by
    /// [`CycleCategory`] (concurrent buckets ride on top).
    pub attribution: CycleAttribution,
}

impl EventRecord {
    /// Retry dispatches (attempts beyond the first).
    pub fn retries(&self) -> u64 {
        self.attempts.saturating_sub(1)
    }

    /// Whether the request completed (any tier).
    pub fn completed(&self) -> bool {
        self.outcome.tier().is_some()
    }

    /// Flat form for bitwise-determinism fingerprints.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut fp = vec![
            self.id,
            self.trace,
            self.replica.map_or(u64::MAX, |r| r),
            self.outcome.tier().map_or(u64::MAX, |t| t as u64),
            fnv1a(self.outcome.name()),
            self.attempts,
            self.hedged as u64,
            self.hedge_won as u64,
            self.arrival,
            self.finished_at,
            self.latency,
            self.deadline_slack as u64,
        ];
        fp.extend(self.attribution.fingerprint());
        fp
    }

    /// The record's field pairs, shared by the `sample` and `top` log
    /// lines.
    fn json_fields(&self) -> Vec<(&'static str, Json)> {
        let attr: Vec<(String, Json)> = self
            .attribution
            .iter()
            .map(|(c, cycles)| (c.name().to_string(), Json::UInt(cycles)))
            .collect();
        vec![
            ("id", Json::UInt(self.id)),
            ("trace", Json::Str(hex_trace(self.trace))),
            ("replica", self.replica.map_or(Json::Null, Json::UInt)),
            ("tier", self.outcome.tier().map_or(Json::Null, |t| Json::UInt(t as u64))),
            ("outcome", Json::Str(self.outcome.name().to_string())),
            ("attempts", Json::UInt(self.attempts)),
            ("hedged", Json::Bool(self.hedged)),
            ("hedge_won", Json::Bool(self.hedge_won)),
            ("arrival", Json::UInt(self.arrival)),
            ("finished_at", Json::UInt(self.finished_at)),
            ("latency", Json::UInt(self.latency)),
            ("deadline_slack", Json::Num(self.deadline_slack as f64)),
            ("attr", Json::Obj(attr)),
        ]
    }

    /// Parses a record back out of a `sample`/`top` log line.
    /// Returns `None` on shape mismatch, including an unknown outcome
    /// name, and a tier missing from a completion or present on any
    /// other outcome.
    pub fn from_json(j: &Json) -> Option<EventRecord> {
        let mut attribution = CycleAttribution::new();
        if let Some(Json::Obj(pairs)) = j.get("attr") {
            for (name, v) in pairs {
                let c = CycleCategory::ALL.iter().find(|c| c.name() == name)?;
                attribution.add(*c, v.as_u64()?);
            }
        }
        let tier = j.get("tier").and_then(Json::as_u64).and_then(|t| usize::try_from(t).ok());
        Some(EventRecord {
            id: j.get("id")?.as_u64()?,
            trace: parse_hex_trace(j.get("trace")?.as_str()?)?,
            replica: j.get("replica").and_then(Json::as_u64),
            outcome: Outcome::from_name(j.get("outcome")?.as_str()?, tier)?,
            attempts: j.get("attempts")?.as_u64()?,
            hedged: j.get("hedged")?.as_bool()?,
            hedge_won: j.get("hedge_won")?.as_bool()?,
            arrival: j.get("arrival")?.as_u64()?,
            finished_at: j.get("finished_at")?.as_u64()?,
            latency: j.get("latency")?.as_u64()?,
            deadline_slack: j.get("deadline_slack")?.as_f64()? as i64,
            attribution,
        })
    }
}

/// Folded call stacks over the virtual cycle clock — the
/// inferno/speedscope flamegraph interchange format: one line per
/// distinct root-to-leaf frame path, `frame;frame;frame <cycles>`.
///
/// Frames are **category names** (plus the layer's own name for
/// `Layer` spans, which are low-cardinality labels like `conv0`), so
/// the map stays bounded by the distinct shapes a request can take,
/// not by the request count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FoldedStacks {
    stacks: BTreeMap<String, u64>,
}

impl FoldedStacks {
    /// An empty profile.
    pub fn new() -> FoldedStacks {
        FoldedStacks::default()
    }

    /// Adds `cycles` to the stack named by `path` (frames already
    /// `;`-joined). Zero-cycle additions are dropped — they would add
    /// noise frames (e.g. breaker markers) with no area.
    pub fn add(&mut self, path: &str, cycles: u64) {
        if cycles == 0 {
            return;
        }
        match self.stacks.get_mut(path) {
            Some(c) => *c += cycles,
            None => {
                self.stacks.insert(path.to_string(), cycles);
            }
        }
    }

    /// Folds one request's span tree: every leaf contributes its cycles
    /// under its root-to-leaf frame path.
    pub fn add_tree(&mut self, tree: &SpanTree) {
        let spans = tree.spans();
        // Parents are inserted before their children, so one forward
        // pass lays out every span's path (its parent's path, `;`, its
        // own frame) in one buffer and marks the spans that have a
        // child. The search for the parent runs backwards from the
        // child, which it usually sits just behind.
        let mut paths = String::with_capacity(spans.len() * 32);
        let mut ranges: Vec<(usize, usize, bool)> = Vec::with_capacity(spans.len());
        for (i, s) in spans.iter().enumerate() {
            let start = paths.len();
            if let Some(p) = s.parent.and_then(|pid| spans[..i].iter().rposition(|q| q.id == pid)) {
                let (a, b, _) = ranges[p];
                ranges[p].2 = true;
                paths.extend_from_within(a..b);
                paths.push(';');
            }
            paths.push_str(match s.category {
                CycleCategory::Layer => s.name.as_str(),
                c => c.name(),
            });
            ranges.push((start, paths.len(), false));
        }
        for (s, &(a, b, has_child)) in spans.iter().zip(&ranges) {
            if !has_child {
                self.add(&paths[a..b], s.cycles());
            }
        }
    }

    /// Merges another profile into this one.
    pub fn merge(&mut self, other: &FoldedStacks) {
        for (path, cycles) in &other.stacks {
            self.add(path, *cycles);
        }
    }

    /// The distinct stacks and their cycles, sorted by path.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.stacks.iter().map(|(p, &c)| (p.as_str(), c))
    }

    /// Total cycles across every stack.
    pub fn total(&self) -> u64 {
        self.stacks.values().sum()
    }

    /// Renders the inferno text form (sorted by path, one stack per
    /// line, trailing newline when non-empty).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (path, cycles) in &self.stacks {
            out.push_str(path);
            out.push(' ');
            out.push_str(&cycles.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses the text form written by [`FoldedStacks::render`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line, or of the
    /// line that takes the total past `u64::MAX`.
    pub fn parse(text: &str) -> Result<FoldedStacks, String> {
        let mut folded = FoldedStacks::new();
        // Every stack sums to at most the total, so a total that fits
        // keeps both `add` and `total` from overflowing.
        let mut total = 0u64;
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (path, count) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line {}: no cycle count in {line:?}", i + 1))?;
            let cycles: u64 = count
                .parse()
                .map_err(|e| format!("line {}: bad cycle count {count:?}: {e}", i + 1))?;
            total = total
                .checked_add(cycles)
                .ok_or_else(|| format!("line {}: cycle total overflows u64", i + 1))?;
            folded.add(path, cycles);
        }
        Ok(folded)
    }

    /// Each stack's share of the total cycles (empty profile → empty
    /// map).
    pub fn shares(&self) -> BTreeMap<String, f64> {
        let total = self.total();
        if total == 0 {
            return BTreeMap::new();
        }
        self.stacks.iter().map(|(p, &c)| (p.clone(), c as f64 / total as f64)).collect()
    }

    /// Flat form for bitwise-determinism fingerprints.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut fp = vec![self.stacks.len() as u64];
        for (path, cycles) in &self.stacks {
            fp.extend([fnv1a(path), *cycles]);
        }
        fp
    }
}

/// One attribution-share drift between two folded profiles, as found by
/// [`folded_share_regressions`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShareDrift {
    /// The frame path whose share moved.
    pub stack: String,
    /// Baseline share of total cycles (0 when the stack is new).
    pub base_share: f64,
    /// Current share of total cycles (0 when the stack vanished).
    pub cur_share: f64,
}

impl ShareDrift {
    /// Human-readable one-liner for the report table.
    pub fn describe(&self) -> String {
        format!(
            "{}: share {:.4}% -> {:.4}% ({:+.4} pp)",
            self.stack,
            self.base_share * 100.0,
            self.cur_share * 100.0,
            (self.cur_share - self.base_share) * 100.0
        )
    }
}

/// Differential profile: every stack whose share of total cycles moved
/// by more than `tolerance` (absolute share, e.g. `0.01` = one
/// percentage point) between `base` and `current` — including stacks
/// that appeared or vanished. The benches are deterministic, so the
/// default gate runs this at tolerance 0: any drift is a real change
/// in where the cycles go.
pub fn folded_share_regressions(
    base: &FoldedStacks,
    current: &FoldedStacks,
    tolerance: f64,
) -> Vec<ShareDrift> {
    let (bs, cs) = (base.shares(), current.shares());
    let mut stacks: Vec<&String> = bs.keys().chain(cs.keys()).collect();
    stacks.sort();
    stacks.dedup();
    // Strict inequality plus an epsilon so tolerance 0 still accepts
    // bit-identical floating shares.
    let slop = tolerance.max(0.0) + 1e-12;
    stacks
        .into_iter()
        .filter_map(|stack| {
            let base_share = bs.get(stack).copied().unwrap_or(0.0);
            let cur_share = cs.get(stack).copied().unwrap_or(0.0);
            ((cur_share - base_share).abs() > slop).then(|| ShareDrift {
                stack: stack.clone(),
                base_share,
                cur_share,
            })
        })
        .collect()
}

/// Sampling/windowing parameters for one [`ObsLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Tumbling-window width in virtual cycles (windows key on
    /// `finished_at / window`).
    pub window: u64,
    /// Reservoir size: how many full records each scenario stream keeps
    /// (Algorithm R, counter-keyed draws).
    pub reservoir: usize,
    /// How many slowest completed requests each scenario keeps exactly.
    pub top_k: usize,
    /// Seed folded into every sampling draw.
    pub seed: u64,
    /// Latency bucket upper bounds (one extra overflow bucket is
    /// implied). Defaults to the `serve.latency` log2 bounds so bucket
    /// exemplars line up with the registry histogram.
    pub bounds: Vec<u64>,
}

impl ObsConfig {
    /// A config with the standard sizes: 64-record reservoir, top-10,
    /// `serve.latency`-compatible log2(24) bounds.
    pub fn new(window: u64, seed: u64) -> ObsConfig {
        ObsConfig { window: window.max(1), reservoir: 64, top_k: 10, seed, bounds: log2_bounds(24) }
    }
}

/// One latency-bucket exemplar: a concrete request behind an aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Exemplar {
    trace: u64,
    id: u64,
    latency: u64,
}

/// A bounded aggregate over a slice of the record stream (one window,
/// one group key, or a whole scenario): the record stream's [`Tally`],
/// one exemplar per latency bucket, merged attribution, and the
/// deadline, hedge and retry counts a [`Tally`] does not keep.
#[derive(Debug, Clone, PartialEq)]
struct Agg {
    /// Draw key: distinguishes this aggregate's exemplar reservoirs
    /// from every other aggregate's.
    key: u64,
    tally: Tally,
    missed_deadline: u64,
    hedged: u64,
    retries: u64,
    /// One reservoir-1 exemplar per bucket (completed records only).
    exemplars: Vec<Option<Exemplar>>,
    attr: CycleAttribution,
}

impl Agg {
    fn new(key: u64, bounds: &[u64]) -> Agg {
        Agg {
            key,
            tally: Tally::new(bounds),
            missed_deadline: 0,
            hedged: 0,
            retries: 0,
            exemplars: vec![None; bounds.len() + 1],
            attr: CycleAttribution::new(),
        }
    }

    fn record(&mut self, rec: &EventRecord, bounds: &[u64], seed: u64) {
        self.attr.merge(&rec.attribution);
        self.missed_deadline += (rec.deadline_slack < 0) as u64;
        self.hedged += rec.hedged as u64;
        self.retries += rec.retries();
        if let Some(idx) = self.tally.add(rec.outcome, rec.latency, bounds) {
            // Reservoir of size 1 per bucket: the n-th completed record
            // in the bucket replaces the exemplar with probability 1/n,
            // decided by a counter-keyed SplitMix64 draw — deterministic,
            // uniform over the bucket, O(1).
            let n = self.tally.buckets[idx];
            let take =
                n == 1 || split_mix(seed ^ self.key ^ (idx as u64) << 32 ^ n).is_multiple_of(n);
            if take {
                self.exemplars[idx] =
                    Some(Exemplar { trace: rec.trace, id: rec.id, latency: rec.latency });
            }
        }
    }

    /// The exemplar witnessing quantile `q`: the one from the bucket
    /// holding the rank, falling back to the nearest occupied bucket
    /// above, then below. `Some` whenever any request completed, so
    /// every reported p99 links to at least one concrete trace id.
    fn quantile_exemplar(&self, q: f64) -> Option<Exemplar> {
        let hit = rank_bucket(&self.tally.buckets, self.tally.completed, q)?;
        (hit..self.exemplars.len()).chain((0..hit).rev()).find_map(|i| self.exemplars[i])
    }

    fn goodput(&self) -> f64 {
        let t = &self.tally;
        if t.finalized == 0 {
            0.0
        } else {
            t.completed as f64 / t.finalized as f64
        }
    }

    fn attr_json(&self) -> Json {
        Json::Obj(
            self.attr
                .iter()
                .map(|(c, cycles)| (c.name().to_string(), Json::UInt(cycles)))
                .collect(),
        )
    }

    /// The aggregate's common JSON fields (counts + latency stats +
    /// p50/p99 with the p99 exemplar).
    fn json_fields(&self, bounds: &[u64]) -> Vec<(&'static str, Json)> {
        let t = &self.tally;
        let mut pairs = vec![
            ("count", Json::UInt(t.finalized)),
            ("completed", Json::UInt(t.completed)),
            ("degraded", Json::UInt(t.degraded)),
            ("shed", Json::UInt(t.shed)),
            ("timed_out", Json::UInt(t.timed_out)),
            ("errors", Json::UInt(t.errors)),
            ("missed_deadline", Json::UInt(self.missed_deadline)),
            ("hedged", Json::UInt(self.hedged)),
            ("retries", Json::UInt(self.retries)),
            ("goodput", Json::Num(self.goodput())),
            ("latency_sum", Json::UInt(t.latency_sum)),
            ("max", Json::UInt(t.max)),
            ("p50", Json::UInt(t.quantile(bounds, 0.50))),
            ("p99", Json::UInt(t.quantile(bounds, 0.99))),
        ];
        if let Some(e) = self.quantile_exemplar(0.99) {
            pairs.push(("p99_exemplar", Json::Str(hex_trace(e.trace))));
            pairs.push(("p99_exemplar_id", Json::UInt(e.id)));
        }
        pairs.push(("attr", self.attr_json()));
        pairs
    }
}

/// One scenario's bounded accumulator inside an [`ObsLog`].
#[derive(Debug, Clone, PartialEq)]
struct ScenarioObs {
    name: String,
    site: String,
    replicas: u64,
    seen: u64,
    total: Agg,
    windows: BTreeMap<u64, Agg>,
    by_outcome: BTreeMap<&'static str, Agg>,
    by_tier: BTreeMap<u64, Agg>,
    by_replica: BTreeMap<u64, Agg>,
    reservoir: Vec<EventRecord>,
    /// Exact top-k slowest completed requests, keyed `(latency, id)`.
    top: BTreeMap<(u64, u64), EventRecord>,
    folded: FoldedStacks,
}

/// Summary numbers for one scenario stream, for gating asserts without
/// re-parsing the written log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSummary {
    /// Records ingested.
    pub requests: u64,
    /// Completed requests.
    pub completed: u64,
    /// `completed / requests` (0 when empty).
    pub goodput: f64,
    /// Bucketed nearest-rank p99 over completed latencies.
    pub p99: u64,
    /// Exact maximum completed latency.
    pub max_latency: u64,
    /// Closed tumbling windows the stream touched.
    pub windows: u64,
}

/// The streaming, bounded observability accumulator for one bench run.
/// See the module docs for the memory model and determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsLog {
    bench: String,
    cfg: ObsConfig,
    scenarios: Vec<ScenarioObs>,
}

impl ObsLog {
    /// A new empty log for `bench` under `cfg`. A zero `cfg.window` is
    /// clamped to 1 (as [`ObsConfig::new`] does), and the header reports
    /// the window used.
    pub fn new(bench: impl Into<String>, mut cfg: ObsConfig) -> ObsLog {
        cfg.window = cfg.window.max(1);
        ObsLog { bench: bench.into(), cfg, scenarios: Vec::new() }
    }

    /// Opens a new scenario stream and returns its index. `site` names
    /// the fault site armed for the scenario (empty when clean) — the
    /// label `sc_obs` slices on.
    pub fn scenario(
        &mut self,
        name: impl Into<String>,
        site: impl Into<String>,
        replicas: u64,
    ) -> usize {
        let name = name.into();
        let key = split_mix(self.cfg.seed ^ fnv1a(&name));
        let bounds = &self.cfg.bounds;
        self.scenarios.push(ScenarioObs {
            name,
            site: site.into(),
            replicas,
            seen: 0,
            total: Agg::new(key, bounds),
            windows: BTreeMap::new(),
            by_outcome: BTreeMap::new(),
            by_tier: BTreeMap::new(),
            by_replica: BTreeMap::new(),
            reservoir: Vec::new(),
            top: BTreeMap::new(),
            folded: FoldedStacks::new(),
        });
        self.scenarios.len() - 1
    }

    /// Streams one finalized-request record into scenario `idx`. O(log
    /// windows) time, O(1) added memory (amortized zero once the
    /// windows and groups exist).
    pub fn record(&mut self, idx: usize, rec: &EventRecord) {
        let cfg = &self.cfg;
        let (seed, bounds) = (cfg.seed, cfg.bounds.as_slice());
        let sc = &mut self.scenarios[idx];
        sc.seen += 1;
        sc.total.record(rec, bounds, seed);
        let base = sc.total.key;
        let w = rec.finished_at / cfg.window;
        sc.windows
            .entry(w)
            .or_insert_with(|| Agg::new(split_mix(base ^ w), bounds))
            .record(rec, bounds, seed);
        let name = rec.outcome.name();
        sc.by_outcome
            .entry(name)
            .or_insert_with(|| Agg::new(split_mix(base ^ fnv1a(name)), bounds))
            .record(rec, bounds, seed);
        if let Some(t) = rec.outcome.tier().map(|t| t as u64) {
            sc.by_tier
                .entry(t)
                .or_insert_with(|| Agg::new(split_mix(base ^ 0x7139 ^ t), bounds))
                .record(rec, bounds, seed);
        }
        if let Some(r) = rec.replica {
            sc.by_replica
                .entry(r)
                .or_insert_with(|| Agg::new(split_mix(base ^ 0x9e37 ^ r), bounds))
                .record(rec, bounds, seed);
        }
        // Algorithm R over the stream: record n (1-based) replaces a
        // uniformly-drawn slot with probability K/n. The draw is keyed
        // on the per-stream record index, so the sample is a pure
        // function of the stream.
        if sc.reservoir.len() < cfg.reservoir {
            sc.reservoir.push(*rec);
        } else if cfg.reservoir > 0 {
            let j = split_mix(seed ^ base ^ sc.seen) % sc.seen;
            if (j as usize) < cfg.reservoir {
                sc.reservoir[j as usize] = *rec;
            }
        }
        // Top-k keeps the largest `(latency, id)` keys. A record that
        // would be evicted at once (the map is full and its key is below
        // the smallest kept) is never copied in.
        let key = (rec.latency, rec.id);
        if rec.completed()
            && cfg.top_k > 0
            && (sc.top.len() < cfg.top_k
                || sc.top.first_key_value().is_some_and(|(k, _)| key >= *k))
        {
            sc.top.insert(key, *rec);
            if sc.top.len() > cfg.top_k {
                sc.top.pop_first();
            }
        }
    }

    /// Streams a batch of records into scenario `idx`.
    pub fn ingest(&mut self, idx: usize, events: &[EventRecord]) {
        for rec in events {
            self.record(idx, rec);
        }
    }

    /// Merges a folded-stack profile into scenario `idx` (the serving
    /// layer folds each span tree as it finalizes, so trees need not
    /// be retained).
    pub fn fold(&mut self, idx: usize, folded: &FoldedStacks) {
        self.scenarios[idx].folded.merge(folded);
    }

    /// Summary numbers for scenario `idx`.
    pub fn summary(&self, idx: usize) -> ScenarioSummary {
        let sc = &self.scenarios[idx];
        ScenarioSummary {
            requests: sc.seen,
            completed: sc.total.tally.completed,
            goodput: sc.total.goodput(),
            p99: sc.total.tally.quantile(&self.cfg.bounds, 0.99),
            max_latency: sc.total.tally.max,
            windows: sc.windows.len() as u64,
        }
    }

    /// The folded profile merged across every scenario — what the
    /// differential profiler diffs against `results/baseline/`.
    pub fn folded_total(&self) -> FoldedStacks {
        let mut all = FoldedStacks::new();
        for sc in &self.scenarios {
            all.merge(&sc.folded);
        }
        all
    }

    /// Upper bound on emitted log lines — a pure function of windows,
    /// groups, and sample sizes, independent of the request count.
    pub fn line_bound(&self) -> usize {
        let b = self.cfg.bounds.len() + 1;
        1 + self
            .scenarios
            .iter()
            .map(|sc| {
                2 + sc.windows.len()
                    + sc.by_outcome.len()
                    + sc.by_tier.len()
                    + sc.by_replica.len()
                    + sc.reservoir.len()
                    + sc.top.len()
                    + b
            })
            .sum::<usize>()
    }

    /// Renders the append-only JSONL event log: a header line, then per
    /// scenario its meta/summary line followed by `window`, `group`,
    /// `exemplar`, `top`, and `sample` lines — every line one compact
    /// JSON object, every sequence sorted, the whole text a pure
    /// function of the ingested stream.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        let mut line = |j: Json| {
            out.push_str(&j.render());
            out.push('\n');
        };
        line(Json::obj(vec![
            ("kind", Json::Str("header".into())),
            ("schema_version", Json::UInt(OBS_SCHEMA_VERSION)),
            ("bench", Json::Str(self.bench.clone())),
            ("window", Json::UInt(self.cfg.window)),
            ("reservoir", Json::UInt(self.cfg.reservoir as u64)),
            ("top_k", Json::UInt(self.cfg.top_k as u64)),
            ("seed", Json::UInt(self.cfg.seed)),
            ("bounds", Json::Arr(self.cfg.bounds.iter().map(|&b| Json::UInt(b)).collect())),
            ("scenarios", Json::UInt(self.scenarios.len() as u64)),
        ]));
        for (i, sc) in self.scenarios.iter().enumerate() {
            let i = i as u64;
            let mut pairs = vec![
                ("kind", Json::Str("scenario".into())),
                ("scenario", Json::UInt(i)),
                ("name", Json::Str(sc.name.clone())),
                ("site", Json::Str(sc.site.clone())),
                ("replicas", Json::UInt(sc.replicas)),
                ("requests", Json::UInt(sc.seen)),
            ];
            pairs.extend(sc.total.json_fields(&self.cfg.bounds));
            line(Json::obj(pairs));
            for (&w, agg) in &sc.windows {
                let (start, end) = window_span(w, self.cfg.window);
                let mut pairs = vec![
                    ("kind", Json::Str("window".into())),
                    ("scenario", Json::UInt(i)),
                    ("index", Json::UInt(w)),
                    ("start", Json::UInt(start)),
                    ("end", Json::UInt(end)),
                ];
                pairs.extend(agg.json_fields(&self.cfg.bounds));
                line(Json::obj(pairs));
            }
            let mut group = |by: &str, key: Json, agg: &Agg| {
                let mut pairs = vec![
                    ("kind", Json::Str("group".into())),
                    ("scenario", Json::UInt(i)),
                    ("by", Json::Str(by.into())),
                    ("key", key),
                ];
                pairs.extend(agg.json_fields(&self.cfg.bounds));
                line(Json::obj(pairs));
            };
            for (k, agg) in &sc.by_outcome {
                group("outcome", Json::Str(k.to_string()), agg);
            }
            for (k, agg) in &sc.by_tier {
                group("tier", Json::UInt(*k), agg);
            }
            for (k, agg) in &sc.by_replica {
                group("replica", Json::UInt(*k), agg);
            }
            for (b, e) in sc.total.exemplars.iter().enumerate() {
                let Some(e) = e else { continue };
                line(Json::obj(vec![
                    ("kind", Json::Str("exemplar".into())),
                    ("scenario", Json::UInt(i)),
                    (
                        "le",
                        self.cfg.bounds.get(b).map_or(Json::Str("+inf".into()), |&v| Json::UInt(v)),
                    ),
                    ("bucket_count", Json::UInt(sc.total.tally.buckets[b])),
                    ("trace", Json::Str(hex_trace(e.trace))),
                    ("id", Json::UInt(e.id)),
                    ("latency", Json::UInt(e.latency)),
                ]));
            }
            for (rank, (_, rec)) in sc.top.iter().rev().enumerate() {
                let mut pairs = vec![
                    ("kind", Json::Str("top".into())),
                    ("scenario", Json::UInt(i)),
                    ("rank", Json::UInt(rank as u64 + 1)),
                ];
                pairs.extend(rec.json_fields());
                line(Json::obj(pairs));
            }
            for (seq, rec) in sc.reservoir.iter().enumerate() {
                let mut pairs = vec![
                    ("kind", Json::Str("sample".into())),
                    ("scenario", Json::UInt(i)),
                    ("seq", Json::UInt(seq as u64)),
                ];
                pairs.extend(rec.json_fields());
                line(Json::obj(pairs));
            }
        }
        out
    }

    /// Writes `<dir>/<bench>.events.jsonl` and `<dir>/<bench>.folded`
    /// and returns both paths.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write(&self, dir: &Path) -> io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let events = dir.join(format!("{}.events.jsonl", self.bench));
        std::fs::write(&events, self.render_jsonl())?;
        let folded = dir.join(format!("{}.folded", self.bench));
        std::fs::write(&folded, self.folded_total().render())?;
        Ok((events, folded))
    }
}

// ---------------------------------------------------------------------
// Query engine
// ---------------------------------------------------------------------

/// Record-level and scenario-level filters for [`ObsView`] queries.
/// Scenario/site select streams; outcome/tier/replica select records
/// and group rows within them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsQuery {
    /// Keep only the scenario with this exact name.
    pub scenario: Option<String>,
    /// Keep only scenarios whose fault-site label matches exactly
    /// (empty string = clean scenarios).
    pub site: Option<String>,
    /// Keep only records/groups with this outcome.
    pub outcome: Option<String>,
    /// Keep only records/groups on this replica.
    pub replica: Option<u64>,
    /// Keep only records/groups at this degradation tier.
    pub tier: Option<u64>,
}

/// One parsed scenario stream inside an [`ObsView`].
#[derive(Debug, Clone)]
struct ScenarioLines {
    meta: Json,
    windows: Vec<Json>,
    groups: Vec<Json>,
    exemplars: Vec<Json>,
    tops: Vec<(Json, EventRecord)>,
    samples: Vec<EventRecord>,
}

impl ScenarioLines {
    fn name(&self) -> &str {
        self.meta.get("name").and_then(Json::as_str).unwrap_or("")
    }

    fn site(&self) -> &str {
        self.meta.get("site").and_then(Json::as_str).unwrap_or("")
    }

    fn selected(&self, q: &ObsQuery) -> bool {
        q.scenario.as_deref().is_none_or(|s| s == self.name())
            && q.site.as_deref().is_none_or(|s| s == self.site())
    }
}

fn record_selected(rec: &EventRecord, q: &ObsQuery) -> bool {
    q.outcome.as_deref().is_none_or(|o| o == rec.outcome.name())
        && q.replica.is_none_or(|r| rec.replica == Some(r))
        && q.tier.is_none_or(|t| rec.outcome.tier().is_some_and(|x| x as u64 == t))
}

fn uint_of(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn num_of(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key).and_then(Json::as_str).unwrap_or("")
}

/// The query engine over a written event log: parses the JSONL text
/// back into its line kinds and renders deterministic text answers for
/// the `sc_obs` CLI (and for tests).
#[derive(Debug, Clone)]
pub struct ObsView {
    header: Json,
    scenarios: Vec<ScenarioLines>,
}

impl ObsView {
    /// Parses the text of a `<bench>.events.jsonl` file.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or out-of-order
    /// line, or a header schema mismatch.
    pub fn parse(text: &str) -> Result<ObsView, String> {
        let mut header: Option<Json> = None;
        let mut scenarios: Vec<ScenarioLines> = Vec::new();
        for (ln, raw) in text.lines().enumerate() {
            let at = ln + 1;
            let j = Json::parse(raw).map_err(|e| format!("line {at}: {e}"))?;
            let kind = str_of(&j, "kind").to_string();
            match kind.as_str() {
                "header" => {
                    let v = uint_of(&j, "schema_version");
                    if v != OBS_SCHEMA_VERSION {
                        return Err(format!(
                            "line {at}: event-log schema_version {v} (supported: \
                             {OBS_SCHEMA_VERSION})"
                        ));
                    }
                    header = Some(j);
                }
                "scenario" => scenarios.push(ScenarioLines {
                    meta: j,
                    windows: Vec::new(),
                    groups: Vec::new(),
                    exemplars: Vec::new(),
                    tops: Vec::new(),
                    samples: Vec::new(),
                }),
                _ => {
                    let sc = scenarios
                        .last_mut()
                        .ok_or_else(|| format!("line {at}: {kind} line before any scenario"))?;
                    match kind.as_str() {
                        "window" => sc.windows.push(j),
                        "group" => sc.groups.push(j),
                        "exemplar" => sc.exemplars.push(j),
                        "top" => {
                            let rec = EventRecord::from_json(&j)
                                .ok_or_else(|| format!("line {at}: malformed top record"))?;
                            sc.tops.push((j, rec));
                        }
                        "sample" => sc.samples.push(
                            EventRecord::from_json(&j)
                                .ok_or_else(|| format!("line {at}: malformed sample record"))?,
                        ),
                        other => return Err(format!("line {at}: unknown line kind {other:?}")),
                    }
                }
            }
        }
        let header = header.ok_or_else(|| "event log has no header line".to_string())?;
        Ok(ObsView { header, scenarios })
    }

    /// Reads and parses an event-log file.
    ///
    /// # Errors
    ///
    /// Returns the I/O or parse failure as a description.
    pub fn load(path: &Path) -> Result<ObsView, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        ObsView::parse(&text)
    }

    /// The bench the log was written by.
    pub fn bench(&self) -> &str {
        str_of(&self.header, "bench")
    }

    fn selected(&self, q: &ObsQuery) -> Vec<&ScenarioLines> {
        self.scenarios.iter().filter(|sc| sc.selected(q)).collect()
    }

    /// `summary`: one row per selected scenario — requests, goodput,
    /// p50/p99 (with the p99 exemplar trace), windows, and the armed
    /// fault site.
    pub fn summary(&self, q: &ObsQuery) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>9} {:>9} {:>8} {:>9} {:>9} {:>8} {:<18} {}\n",
            "scenario",
            "requests",
            "complete",
            "goodput",
            "p50",
            "p99",
            "windows",
            "p99-exemplar",
            "site"
        ));
        for sc in self.selected(q) {
            let m = &sc.meta;
            let exemplar = str_of(m, "p99_exemplar");
            out.push_str(&format!(
                "{:<24} {:>9} {:>9} {:>8.4} {:>9} {:>9} {:>8} {:<18} {}\n",
                sc.name(),
                uint_of(m, "requests"),
                uint_of(m, "completed"),
                num_of(m, "goodput"),
                uint_of(m, "p50"),
                uint_of(m, "p99"),
                sc.windows.len(),
                exemplar,
                sc.site(),
            ));
        }
        out
    }

    /// `top`: the `k` slowest completed requests per selected scenario
    /// (record-level filters apply), each with its exemplar-grade
    /// identity: trace id, replica, tier, attempts, hedging, deadline
    /// slack, and its two largest attribution buckets.
    pub fn top(&self, q: &ObsQuery, k: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>4} {:>9} {:<18} {:>7} {:>4} {:>8} {:>6} {:>12} {}\n",
            "scenario",
            "rank",
            "latency",
            "trace",
            "replica",
            "tier",
            "attempts",
            "hedged",
            "slack",
            "hottest"
        ));
        for sc in self.selected(q) {
            let mut rank = 0usize;
            for (line, rec) in &sc.tops {
                if !record_selected(rec, q) {
                    continue;
                }
                rank += 1;
                if rank > k {
                    break;
                }
                let mut buckets: Vec<(CycleCategory, u64)> = rec.attribution.iter().collect();
                buckets.sort_by_key(|&(c, cycles)| (std::cmp::Reverse(cycles), c.code()));
                let hottest = buckets
                    .iter()
                    .take(2)
                    .map(|(c, cycles)| format!("{}={cycles}", c.name()))
                    .collect::<Vec<_>>()
                    .join(",");
                out.push_str(&format!(
                    "{:<24} {:>4} {:>9} {:<18} {:>7} {:>4} {:>8} {:>6} {:>12} {}\n",
                    sc.name(),
                    uint_of(line, "rank"),
                    rec.latency,
                    hex_trace(rec.trace),
                    rec.replica.map_or("-".to_string(), |r| r.to_string()),
                    rec.outcome.tier().map_or("-".to_string(), |t| t.to_string()),
                    rec.attempts,
                    if rec.hedged { "yes" } else { "no" },
                    rec.deadline_slack,
                    hottest,
                ));
            }
        }
        out
    }

    /// `breakdown`: per selected scenario, one row per `by` group
    /// (`outcome`, `tier`, or `replica`) with counts, goodput, p99 (and
    /// its exemplar), and the group's cycle-attribution split.
    ///
    /// # Errors
    ///
    /// Rejects an unknown `by` dimension.
    pub fn breakdown(&self, q: &ObsQuery, by: &str) -> Result<String, String> {
        if !["outcome", "tier", "replica"].contains(&by) {
            return Err(format!("unknown breakdown dimension {by:?} (outcome|tier|replica)"));
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:<12} {:>9} {:>8} {:>9} {:<18} {}\n",
            "scenario", by, "count", "goodput", "p99", "p99-exemplar", "attribution"
        ));
        for sc in self.selected(q) {
            for g in &sc.groups {
                if str_of(g, "by") != by {
                    continue;
                }
                let key = match g.get("key") {
                    Some(Json::Str(s)) => s.clone(),
                    Some(v) => v.render(),
                    None => String::new(),
                };
                if by == "outcome" && q.outcome.as_deref().is_some_and(|o| o != key) {
                    continue;
                }
                if by == "tier" && q.tier.is_some_and(|t| t.to_string() != key) {
                    continue;
                }
                if by == "replica" && q.replica.is_some_and(|r| r.to_string() != key) {
                    continue;
                }
                let attr = match g.get("attr") {
                    Some(Json::Obj(pairs)) => pairs
                        .iter()
                        .filter_map(|(k, v)| v.as_u64().map(|c| format!("{k}={c}")))
                        .collect::<Vec<_>>()
                        .join(","),
                    _ => String::new(),
                };
                out.push_str(&format!(
                    "{:<24} {:<12} {:>9} {:>8.4} {:>9} {:<18} {}\n",
                    sc.name(),
                    key,
                    uint_of(g, "count"),
                    num_of(g, "goodput"),
                    uint_of(g, "p99"),
                    str_of(g, "p99_exemplar"),
                    attr,
                ));
            }
        }
        Ok(out)
    }

    /// `series`: the windowed goodput/p99 time series per selected
    /// scenario — one row per tumbling virtual-clock window, each p99
    /// with its exemplar trace.
    pub fn series(&self, q: &ObsQuery) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>8} {:>12} {:>9} {:>9} {:>8} {:>9} {:<18}\n",
            "scenario", "window", "start", "count", "complete", "goodput", "p99", "p99-exemplar"
        ));
        for sc in self.selected(q) {
            for w in &sc.windows {
                out.push_str(&format!(
                    "{:<24} {:>8} {:>12} {:>9} {:>9} {:>8.4} {:>9} {:<18}\n",
                    sc.name(),
                    uint_of(w, "index"),
                    uint_of(w, "start"),
                    uint_of(w, "count"),
                    uint_of(w, "completed"),
                    num_of(w, "goodput"),
                    uint_of(w, "p99"),
                    str_of(w, "p99_exemplar"),
                ));
            }
        }
        out
    }

    /// `exemplars`: the per-latency-bucket exemplar table per selected
    /// scenario — the concrete trace id behind each occupied
    /// `serve.latency`-compatible bucket.
    pub fn exemplars(&self, q: &ObsQuery) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>12} {:>12} {:<18} {:>12} {:>9}\n",
            "scenario", "le", "bucket-count", "trace", "id", "latency"
        ));
        for sc in self.selected(q) {
            for e in &sc.exemplars {
                let le = match e.get("le") {
                    Some(Json::Str(s)) => s.clone(),
                    Some(v) => v.render(),
                    None => String::new(),
                };
                out.push_str(&format!(
                    "{:<24} {:>12} {:>12} {:<18} {:>12} {:>9}\n",
                    sc.name(),
                    le,
                    uint_of(e, "bucket_count"),
                    str_of(e, "trace"),
                    uint_of(e, "id"),
                    uint_of(e, "latency"),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceId;

    fn rec(id: u64, outcome: Outcome, latency: u64, finished_at: u64) -> EventRecord {
        let mut attribution = CycleAttribution::new();
        attribution.add(CycleCategory::QueueWait, latency / 4);
        attribution.add(CycleCategory::MacStream, latency - latency / 4);
        EventRecord {
            id,
            trace: TraceId::derive(7, id).0,
            replica: Some(id % 3),
            outcome,
            attempts: 1 + id % 2,
            hedged: id.is_multiple_of(5),
            hedge_won: false,
            arrival: finished_at.saturating_sub(latency),
            finished_at,
            latency,
            deadline_slack: 100 - latency as i64,
            attribution,
        }
    }

    /// Request `id` completed, at tier `id % 2`.
    fn done(id: u64) -> Outcome {
        Outcome::Completed { tier: (id % 2) as usize }
    }

    fn sample_log(n: u64) -> ObsLog {
        let mut log = ObsLog::new("unit", ObsConfig::new(1000, 0xC0FFEE));
        let idx = log.scenario("storm", "serve.backend", 3);
        for i in 0..n {
            let outcome = if i % 10 == 9 { Outcome::Shed } else { done(i) };
            // Heavy-ish tail: latency grows with a power-of-two kick.
            let latency = 10 + (i % 7) * 30 + if i % 100 == 42 { 4000 } else { 0 };
            log.record(idx, &rec(i, outcome, latency, 50 + i * 37));
        }
        log
    }

    #[test]
    fn log_memory_is_bounded_by_windows_and_samples() {
        let small = sample_log(500);
        let large = sample_log(50_000);
        // 100x the requests: the line bound grows only with the window
        // count (finished_at span), never with the request count.
        let small_sc = &small.scenarios[0];
        let large_sc = &large.scenarios[0];
        assert_eq!(small_sc.reservoir.len(), small.cfg.reservoir);
        assert_eq!(large_sc.reservoir.len(), large.cfg.reservoir);
        assert_eq!(large_sc.top.len(), large.cfg.top_k);
        assert!(large.line_bound() < 4000, "bound {} is windows+samples", large.line_bound());
        let ratio = large.line_bound() as f64 / small.line_bound() as f64;
        let window_ratio = large_sc.windows.len() as f64 / small_sc.windows.len() as f64;
        assert!(ratio <= window_ratio + 1.0, "line growth tracks windows, not requests");
    }

    #[test]
    fn reservoir_and_exemplars_are_deterministic() {
        let a = sample_log(5000);
        let b = sample_log(5000);
        assert_eq!(a.render_jsonl(), b.render_jsonl(), "same stream, byte-identical log");
        // The reservoir holds records from across the stream, not just
        // its head (Algorithm R replaced some of the first K).
        let ids: Vec<u64> = a.scenarios[0].reservoir.iter().map(|r| r.id).collect();
        assert!(ids.iter().any(|&id| id >= 64), "reservoir must sample past the first K");
    }

    #[test]
    fn top_k_is_exact_and_sorted_slowest_first() {
        let log = sample_log(5000);
        let tops: Vec<&EventRecord> = log.scenarios[0].top.values().collect();
        // All retained tops are the 4000+ tail spikes.
        assert_eq!(tops.len(), 10);
        let slowest: Vec<u64> =
            log.scenarios[0].top.iter().rev().map(|((lat, _), _)| *lat).collect();
        assert!(slowest.windows(2).all(|w| w[0] >= w[1]), "descending latency");
        assert!(slowest.iter().all(|&l| l >= 4000), "top-k catches the heavy tail");
        // Exact: the ten largest `(latency, id)` keys over every
        // completed record of the stream.
        let mut keys: Vec<(u64, u64)> = (0..5000u64)
            .filter(|i| i % 10 != 9)
            .map(|i| (10 + (i % 7) * 30 + if i % 100 == 42 { 4000 } else { 0 }, i))
            .collect();
        keys.sort_unstable();
        let kept: Vec<(u64, u64)> = log.scenarios[0].top.keys().copied().collect();
        assert_eq!(kept, keys[keys.len() - 10..]);
    }

    #[test]
    fn a_zero_window_is_clamped_to_one() {
        // `ObsConfig`'s fields are public, so a literal can bypass
        // `ObsConfig::new`'s clamp; the log clamps again.
        let mut log = ObsLog::new("unit", ObsConfig { window: 0, ..ObsConfig::new(1000, 1) });
        let idx = log.scenario("storm", "", 1);
        log.record(idx, &rec(1, done(1), 40, 90));
        log.record(idx, &rec(2, done(2), 40, 91));
        assert_eq!(log.summary(idx).windows, 2, "one-tick windows");
        let text = log.render_jsonl();
        let header = Json::parse(text.lines().next().expect("a header line")).expect("JSON");
        assert_eq!(header.get("window").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn every_reported_p99_carries_an_exemplar() {
        let log = sample_log(5000);
        let sc = &log.scenarios[0];
        assert!(sc.total.quantile_exemplar(0.99).is_some());
        for (w, agg) in &sc.windows {
            if agg.tally.completed > 0 {
                assert!(agg.quantile_exemplar(0.99).is_some(), "window {w} p99 has no exemplar");
            }
        }
        for (k, agg) in &sc.by_outcome {
            if agg.tally.completed > 0 {
                assert!(agg.quantile_exemplar(0.99).is_some(), "group {k} p99 has no exemplar");
            }
        }
    }

    #[test]
    fn windows_and_latency_sums_saturate_at_the_end_of_the_clock() {
        let mut log = ObsLog::new("unit", ObsConfig::new(1000, 1));
        let idx = log.scenario("storm", "", 1);
        let window = |log: &ObsLog| {
            let text = log.render_jsonl();
            text.lines()
                .find(|l| l.contains(r#""kind":"window""#))
                .and_then(|l| Json::parse(l).ok())
        };
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64);
        // A completion finished on the clock's last tick: its window
        // ends there.
        let last = rec(0, done(0), u64::MAX / 2, u64::MAX);
        log.record(idx, &last);
        let w = window(&log).expect("a window line");
        assert_eq!(field(&w, "start"), Some(u64::MAX / 1000 * 1000));
        assert_eq!(field(&w, "end"), Some(u64::MAX), "the last window ends at the clock's end");
        // Two more, and the latencies sum past `u64::MAX`.
        for id in 1..=2 {
            log.record(idx, &EventRecord { id, ..last });
        }
        let w = window(&log).expect("a window line");
        assert_eq!(field(&w, "latency_sum"), Some(u64::MAX), "the sum saturates");
        assert_eq!(log.summary(idx).max_latency, u64::MAX / 2);
        // So do the attributed cycles: three records' stream cycles pass
        // `u64::MAX`, their queue waits do not.
        let attr = w.get("attr").expect("an attribution");
        assert_eq!(field(attr, "mac_stream"), Some(u64::MAX));
        assert_eq!(field(attr, "queue_wait"), Some(3 * (u64::MAX / 2 / 4)));
    }

    #[test]
    fn log_round_trips_through_the_query_engine() {
        let log = sample_log(2000);
        let text = log.render_jsonl();
        let view = ObsView::parse(&text).expect("parse back");
        let q = ObsQuery::default();
        let summary = view.summary(&q);
        assert!(summary.contains("storm"), "{summary}");
        assert!(summary.contains("serve.backend"), "{summary}");
        let top = view.top(&q, 5);
        assert!(top.contains("0x"), "top rows carry trace ids: {top}");
        let breakdown = view.breakdown(&q, "outcome").expect("valid dimension");
        assert!(breakdown.contains("completed") && breakdown.contains("shed"), "{breakdown}");
        assert!(view.breakdown(&q, "bogus").is_err());
        let series = view.series(&q);
        assert!(series.lines().count() > 2, "windowed series has rows: {series}");
        // Filters select deterministically.
        let filtered =
            view.top(&ObsQuery { outcome: Some("completed".into()), ..ObsQuery::default() }, 3);
        assert!(filtered.lines().count() <= 4);
        let none =
            view.summary(&ObsQuery { scenario: Some("absent".into()), ..ObsQuery::default() });
        assert_eq!(none.lines().count(), 1, "header only");
    }

    #[test]
    fn folded_stacks_fold_merge_render_and_parse() {
        let trace = TraceId::derive(1, 5);
        let mut tree = SpanTree::new(trace, "request 5", CycleCategory::Request, 100, 400);
        let root = tree.root().id;
        tree.add(root, "queue wait", CycleCategory::QueueWait, 100, 150);
        let svc = tree.add(root, "attempt 1", CycleCategory::Service, 150, 400);
        let layer = tree.add(svc, "conv0", CycleCategory::Layer, 150, 400);
        let tile = tree.add(layer, "tile 0", CycleCategory::Tile, 150, 400);
        tree.add(tile, "mac stream", CycleCategory::MacStream, 150, 380);
        tree.add(tile, "dmr verify", CycleCategory::DmrVerify, 380, 400);
        let mut folded = FoldedStacks::new();
        folded.add_tree(&tree);
        assert_eq!(folded.total(), 300, "leaves partition the root");
        let text = folded.render();
        assert!(text.contains("request;queue_wait 50\n"), "{text}");
        assert!(text.contains("request;service;conv0;tile;mac_stream 230\n"), "{text}");
        let parsed = FoldedStacks::parse(&text).expect("round trip");
        assert_eq!(parsed, folded);
        let mut merged = folded.clone();
        merged.merge(&folded);
        assert_eq!(merged.total(), 600);
        assert!(FoldedStacks::parse("nocount\n").is_err());
    }

    #[test]
    fn folded_stacks_reject_a_total_past_u64() {
        for text in ["a;b 18446744073709551615\na;b 1", "a 18446744073709551615\nb 1"] {
            let e = FoldedStacks::parse(text).unwrap_err();
            assert!(e.starts_with("line 2:"), "{e}");
        }
        assert_eq!(FoldedStacks::parse("a 18446744073709551615").unwrap().total(), u64::MAX);
    }

    #[test]
    fn folding_resolves_parents_out_of_insertion_order() {
        // Both layers are added before either tile, a zero-length
        // breaker marker sits among the root's children, and a
        // concurrent hedge-loser shadow is added last.
        let mut tree =
            SpanTree::new(TraceId::derive(1, 6), "request 6", CycleCategory::Request, 0, 100);
        let root = tree.root().id;
        tree.add(root, "queue wait", CycleCategory::QueueWait, 0, 10);
        tree.add(root, "breaker reject", CycleCategory::Breaker, 10, 10);
        let svc = tree.add(root, "service", CycleCategory::Service, 10, 90);
        let conv0 = tree.add(svc, "conv0", CycleCategory::Layer, 10, 50);
        let conv1 = tree.add(svc, "conv1", CycleCategory::Layer, 50, 90);
        let t0 = tree.add(conv0, "tile 0", CycleCategory::Tile, 10, 50);
        let t1 = tree.add(conv1, "tile 0", CycleCategory::Tile, 50, 90);
        tree.add(t1, "mac stream", CycleCategory::MacStream, 50, 90);
        tree.add(t0, "mac stream", CycleCategory::MacStream, 10, 45);
        tree.add(t0, "dmr verify", CycleCategory::DmrVerify, 45, 50);
        tree.add(root, "queue wait", CycleCategory::QueueWait, 90, 100);
        tree.add(root, "hedge loser", CycleCategory::HedgeWasted, 0, 40);
        tree.validate().expect("well-formed");
        let mut folded = FoldedStacks::new();
        folded.add_tree(&tree);
        assert_eq!(
            folded.render(),
            "request;hedge_wasted 40\n\
             request;queue_wait 20\n\
             request;service;conv0;tile;dmr_verify 5\n\
             request;service;conv0;tile;mac_stream 35\n\
             request;service;conv1;tile;mac_stream 40\n"
        );
    }

    #[test]
    fn share_regressions_catch_injected_drift_and_pass_identity() {
        let base = FoldedStacks::parse("a;b 900\na;c 100\n").unwrap();
        assert!(folded_share_regressions(&base, &base, 0.0).is_empty(), "identity is clean");
        let drifted = FoldedStacks::parse("a;b 800\na;c 200\n").unwrap();
        let found = folded_share_regressions(&base, &drifted, 0.0);
        assert_eq!(found.len(), 2, "both shares moved");
        assert!(folded_share_regressions(&base, &drifted, 0.2).is_empty(), "inside tolerance");
        // A stack that vanishes (or appears) is a drift even at loose
        // tolerance when its share is material.
        let vanished = FoldedStacks::parse("a;b 1000\n").unwrap();
        let found = folded_share_regressions(&base, &vanished, 0.05);
        assert!(found.iter().any(|d| d.stack == "a;c" && d.cur_share == 0.0));
        assert!(!found[0].describe().is_empty());
    }

    #[test]
    fn event_record_json_round_trips() {
        // Every outcome round-trips through a `sample` line: the
        // completion with its tier, the other four with none.
        let mut log = ObsLog::new("unit", ObsConfig::new(1000, 1));
        let idx = log.scenario("storm", "", 3);
        let recs: Vec<EventRecord> = (0u64..)
            .zip(Outcome::ALL)
            .map(|(id, o)| {
                rec(
                    id,
                    if o.tier().is_some() { Outcome::Completed { tier: 2 } } else { o },
                    77,
                    1000,
                )
            })
            .collect();
        log.ingest(idx, &recs);
        let text = log.render_jsonl();
        let view = ObsView::parse(&text).expect("parse back");
        assert_eq!(view.scenarios[0].samples, recs);
        assert_eq!(recs[0].retries(), recs[0].attempts - 1);
        // An unknown outcome name, a completion without its tier and a
        // tier on any other outcome are malformed lines.
        let line = |outcome: Outcome| {
            let name = format!(r#""outcome":"{}""#, outcome.name());
            text.lines()
                .find(|l| l.contains(r#""kind":"sample""#) && l.contains(&name))
                .expect("a sample line per outcome")
        };
        let completed = line(Outcome::Completed { tier: 2 });
        let shed = line(Outcome::Shed);
        for (good, bad) in [
            (completed, completed.replace(r#""outcome":"completed""#, r#""outcome":"complete""#)),
            (completed, completed.replace(r#""tier":2"#, r#""tier":null"#)),
            (shed, shed.replace(r#""tier":null"#, r#""tier":1"#)),
        ] {
            assert_ne!(good, bad);
            let e = ObsView::parse(&text.replace(good, &bad)).unwrap_err();
            assert!(e.contains("malformed sample record"), "{e}");
        }
    }
}
