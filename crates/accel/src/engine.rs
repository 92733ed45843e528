//! The tile scheduler: executes the Fig. 4 loop nest on a bank of
//! BISC-MVMs (or fixed-point MACs) and counts cycles.

use std::sync::{Arc, OnceLock};

use crate::layer::{ConvGeometry, Tiling};
use crate::memory::{ParitySram, Traffic};
use sc_core::bitplane;
use sc_core::mac::{EarlyTerminationScMac, SaturatingAccumulator};
use sc_core::mvm::{BiscMvm, BitParallelMvm, LaneCodes};
use sc_core::{Error, Precision};
use sc_fault::{FaultKind, FaultSite};
use sc_fixed::FixedMul;
use sc_telemetry::metrics::{counter, histogram, Counter, Histogram};
use sc_telemetry::TileProfile;

/// Canonical `sc-fault` site names registered by this crate.
pub mod sites {
    /// Input-buffer SRAM words (see [`crate::memory::ParitySram`]).
    pub const SRAM_INPUT: &str = "accel.sram.input";
    /// Weight-buffer SRAM words.
    pub const SRAM_WEIGHT: &str = "accel.sram.weight";
    /// The tile output vector as it leaves the MAC array.
    pub const TILE_OUTPUT: &str = "accel.tile.output";
}

/// A tile's verified result: the cycle breakdown, the bitplane words
/// scanned (base compute plus any degraded recompute), the accepted
/// output writes, and whether they came from the degraded
/// (truncated-stream) recompute.
type VerifiedTile = (TileProfile, u64, Vec<(usize, i64)>, bool);

/// A tile's raw compute result: its bill and the write-back list.
type ComputedTile = (TileProfile, u64, Vec<(usize, i64)>);

/// A tile's `(m, r, c)` output ranges, each as `(start, end)`.
type TileRanges = [(usize, usize); 3];

/// One vector unit's sums over its weight row, from which every tile
/// bill is made. They depend on the weights, the tier and the
/// arithmetic only, never on the inputs or the lane count.
#[derive(Default)]
struct UnitSums {
    /// Billed cycles.
    cycles: u64,
    /// `Σ|w|`, what the full-precision serial schedule would bill
    /// (truncated-stream mode only, else 0).
    full: u64,
    /// Packed bitplane words of the prefixes the terms scanned (0 for
    /// fixed-point arithmetic).
    words: u64,
}

/// A tile's bill from its units' sums: the compute cycles and the
/// cycles the truncated stream saved versus the full serial schedule,
/// and the packed bitplane words of the prefixes the tile's terms
/// scanned (0 for fixed-point arithmetic). The `T_M` units run in lock
/// step, so the slowest paces the tile; every unit scans its own
/// prefixes, so words add up.
fn tile_bill(units: &[UnitSums]) -> (TileProfile, u64) {
    let compute = units.iter().map(|u| u.cycles).max().unwrap_or(0);
    let full = units.iter().map(|u| u.full).max().unwrap_or(0);
    // Outside EDT mode `full` stays 0, so savings read 0.
    let edt_saved = full.saturating_sub(compute);
    let words = units.iter().map(|u| u.words).sum();
    (TileProfile { compute, edt_saved, ..TileProfile::default() }, words)
}

/// Cached metric handles for the engine hot loops (name lookup happens
/// once; recording is a flag check + relaxed atomic).
struct EngineMetrics {
    input_words: Counter,
    weight_words: Counter,
    output_words: Counter,
    cycles: Counter,
    tiles: Counter,
    tile_cycles: Arc<Histogram>,
    verify_cycles: Counter,
    degraded_cycles: Counter,
    edt_saved: Counter,
    bitplane_words: Counter,
}

fn engine_metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| EngineMetrics {
        input_words: counter("accel.traffic.input_words"),
        weight_words: counter("accel.traffic.weight_words"),
        output_words: counter("accel.traffic.output_words"),
        cycles: counter("accel.cycles"),
        tiles: counter("accel.tiles"),
        tile_cycles: histogram("accel.tile.cycles", &[16, 64, 256, 1024, 4096, 16384, 65536]),
        verify_cycles: counter("accel.cycles.verify"),
        degraded_cycles: counter("accel.cycles.degraded"),
        edt_saved: counter("accel.edt.saved_cycles"),
        bitplane_words: counter("accel.bitplane.words"),
    })
}

/// Which MAC arithmetic the accelerator instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccelArithmetic {
    /// The proposed bit-serial BISC-MVM.
    ProposedSerial,
    /// The proposed bit-parallel BISC-MVM with parallelism `b`.
    ProposedParallel(u32),
    /// Fixed-point binary MACs (1 cycle per term).
    Fixed,
}

/// How the engine reacts when tile verification keeps failing
/// (`accel.tile.output` armed, see [`TileEngine::with_fault_policy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Recompute-and-compare retries after the first verification
    /// attempt (default 2).
    pub retries: u32,
    /// `true` → after the retry budget the tile is recomputed in the
    /// truncated-stream progressive-precision mode and accepted
    /// (recorded in [`LayerRun::degraded_tiles`]); `false` → the layer
    /// fails with [`Error::RetryExhausted`].
    pub degrade: bool,
    /// Effective weight bits `s` of the degraded recompute (clamped to
    /// `1..=N` at use).
    pub degrade_bits: u32,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy { retries: 2, degrade: true, degrade_bits: 5 }
    }
}

/// Result of running one convolution layer through the accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRun {
    /// Output counters, `[m][r][c]` row-major, in units of `2^-(N-1)`.
    pub outputs: Vec<i64>,
    /// Total cycles for the layer. For the proposed designs each tile
    /// takes `max_m Σ_{z,i,j} ceil(|W[m][z][i][j]|/b)` cycles (the `T_M`
    /// weight groups run in lock step, so the slowest group paces the
    /// tile); fixed-point takes `d` cycles per tile. Verification
    /// replicas and degraded recomputes are billed here too.
    pub cycles: u64,
    /// Off-chip/buffer traffic accounting.
    pub traffic: Traffic,
    /// Tile indices (in the canonical `(m1, r1, c1)` enumeration) whose
    /// outputs exhausted the retry budget and were served from the
    /// truncated-stream progressive-precision fallback. Empty whenever
    /// `accel.tile.output` is disarmed.
    pub degraded_tiles: Vec<usize>,
    /// Per-tile cycle breakdown (compute / DMR verify / EDT recompute /
    /// EDT savings), in the same canonical tile order. Tile totals sum
    /// to [`LayerRun::cycles`]. With no fault site armed they are
    /// [`TileEngine::bill`].
    pub tiles: Vec<TileProfile>,
}

/// The accelerator: a bank of `T_M` vector units of `p = T_R·T_C` lanes.
#[derive(Debug, Clone)]
pub struct TileEngine {
    n: Precision,
    tiling: Tiling,
    arithmetic: AccelArithmetic,
    extra_bits: u32,
    policy: FaultPolicy,
}

impl TileEngine {
    /// Creates an engine at precision `n` with the given tiling and
    /// arithmetic. `extra_bits` is the accumulator headroom `A`.
    pub fn new(n: Precision, tiling: Tiling, arithmetic: AccelArithmetic, extra_bits: u32) -> Self {
        TileEngine { n, tiling, arithmetic, extra_bits, policy: FaultPolicy::default() }
    }

    /// Overrides the fault-handling policy (retry budget / degradation).
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The configured tiling.
    pub fn tiling(&self) -> Tiling {
        self.tiling
    }

    /// Runs one convolution layer. `input` is `[z][y][x]` row-major
    /// (`z·in_h·in_w` codes), `weights` is `[m][z][i][j]` row-major.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the tiling has a zero tile
    /// dimension or the `N + A`-bit accumulator is wider than 62 bits,
    /// [`Error::InvalidGeometry`] if the geometry fails validation,
    /// [`Error::CodeOutOfRange`] if any code an output reads exceeds the
    /// precision (any code at all when an `accel.sram.*` bank is armed,
    /// since the bank stages every word), or [`Error::LengthMismatch`]
    /// if the buffers do not match the geometry.
    pub fn run_layer(
        &self,
        g: &ConvGeometry,
        input: &[i32],
        weights: &[i32],
    ) -> Result<LayerRun, Error> {
        self.run_layer_at(g, input, weights, None)
    }

    /// [`run_layer`](TileEngine::run_layer) at a reduced quality tier:
    /// `effective_bits = Some(s)` runs **every** MAC in the
    /// truncated-stream progressive-precision mode (top `s` weight bits,
    /// `2^(N−s)`-fold shorter streams — see
    /// [`sc_core::mac::EarlyTerminationScMac`]), whatever the configured
    /// arithmetic. This is the serving layer's overload-degradation
    /// entry point: the same fallback PR 3 uses per-tile after retry
    /// exhaustion, applied layer-wide up front. `None` is the
    /// full-precision path, bitwise identical to `run_layer`.
    ///
    /// # Errors
    ///
    /// As [`run_layer`](TileEngine::run_layer), plus
    /// [`Error::UnsupportedPrecision`] if `s` is 0 or exceeds `N`.
    pub fn run_layer_at(
        &self,
        g: &ConvGeometry,
        input: &[i32],
        weights: &[i32],
        effective_bits: Option<u32>,
    ) -> Result<LayerRun, Error> {
        self.check_layer(g, weights, effective_bits)?;
        if input.len() != g.z * g.in_h * g.in_w {
            return Err(Error::LengthMismatch {
                expected: g.z * g.in_h * g.in_w,
                actual: input.len(),
            });
        }

        let (r, c, depth) = (g.r(), g.c(), g.depth());
        let mut cycles = 0u64;
        let mut traffic = Traffic::default();
        let mut degraded_tiles = Vec::new();
        let mut tile_profiles = Vec::new();

        let arithmetic = self.arithmetic;
        let _layer = sc_telemetry::span!("accel.layer", arithmetic, g.m, g.z, r, c);
        let metrics = engine_metrics();

        // When the SRAM sites are armed, the operand buffers are staged
        // through the parity-protected banks once per layer (every word
        // written, then read back through the scrubbing controller).
        // Disarmed banks skip the staging entirely, leaving the borrowed
        // slices — and the computed bits — untouched.
        let staged_input = self.stage_codes("input", input, 0)?;
        let input: &[i32] = staged_input.as_deref().unwrap_or(input);
        let staged_weights = self.stage_codes("weight", weights, 0x9216_D5D9_8979_FB1B)?;
        let weights: &[i32] = staged_weights.as_deref().unwrap_or(weights);
        let tile_site = sc_fault::site(sites::TILE_OUTPUT);

        // Weight-stationary compute (PAPER.md §1.4): the layer's im2col
        // is gathered and range-checked once, and each output map runs
        // as one unit whose lanes are the whole R×C plane, so every
        // weight is decoded once per layer rather than once per tile and
        // no unit checks a lane code again. Units are independent, so
        // they run on the sc-par pool; results come back in map order.
        let cols = gather_patch(g, input, (0, r), (0, c), (r, c));
        let cols = LaneCodes::new(self.n, r * c, &cols)
            .map_err(|bad| self.first_error(bad, &cols, r * c, &weights[..depth]))?;
        let units = sc_par::Pool::global().parallel_map(g.m, |m| {
            self.run_unit(&weights[m * depth..(m + 1) * depth], &cols, effective_bits)
        });
        let mut outputs = Vec::with_capacity(g.m * r * c);
        let mut sums = Vec::with_capacity(g.m);
        for unit in units {
            let (values, unit_sums) = unit?;
            outputs.extend(values);
            sums.push(unit_sums);
        }

        // A tile's write-back list is sliced out of the planes only when
        // the tile must be verified.
        let tiles = self.tiles(g, &sums);
        let results: Vec<Result<TileDone, Error>> = tiles
            .iter()
            .enumerate()
            .map(|(t, &([(m1, m_hi), (r1, r_hi), (c1, c_hi)], (bill, words)))| {
                // The input patch this tile touches is loaded once into
                // the input buffer; weights stream per (m,z,i,j);
                // outputs are written back once as binary numbers (this
                // is the whole point of BISC).
                let patch_h = (r_hi - r1 - 1) * g.stride + g.k;
                let patch_w = (c_hi - c1 - 1) * g.stride + g.k;
                let (profile, bitplane_words, writes, degraded) = match &tile_site {
                    Some(site) => {
                        let writes = (m1..m_hi)
                            .flat_map(|m| (r1..r_hi).map(move |rr| (m * r + rr) * c))
                            .flat_map(|row| (c1..c_hi).map(move |cc| row + cc))
                            .map(|index| (index, outputs[index]))
                            .collect();
                        self.verify_tile(
                            site,
                            t,
                            (bill, words, writes),
                            g,
                            input,
                            weights,
                            (m1, m_hi),
                            (r1, r_hi),
                            (c1, c_hi),
                            effective_bits,
                        )?
                    }
                    None => (bill, words, Vec::new(), false),
                };
                Ok(TileDone {
                    input_words: (g.z * patch_h * patch_w) as u64,
                    weight_words: ((m_hi - m1) * depth) as u64,
                    output_words: ((m_hi - m1) * (r_hi - r1) * (c_hi - c1)) as u64,
                    bitplane_words,
                    profile,
                    writes,
                    degraded,
                })
            })
            .collect();

        // Deterministic merge: per-tile accumulators folded in tile
        // order (metrics and trace events fire here, on the caller's
        // thread, so telemetry layout does not depend on scheduling).
        // A verified tile's accepted writes replace its clean outputs.
        for (t, result) in results.into_iter().enumerate() {
            let done = result?;
            let [(m1, _), (r1, _), (c1, _)] = tiles[t].0;
            traffic.input_words += done.input_words;
            traffic.weight_words += done.weight_words;
            traffic.output_words += done.output_words;
            metrics.input_words.incr(done.input_words);
            metrics.weight_words.incr(done.weight_words);
            metrics.output_words.incr(done.output_words);
            let tile_cycles = done.profile.cycles();
            metrics.tiles.incr(1);
            metrics.cycles.incr(tile_cycles);
            metrics.tile_cycles.record(tile_cycles);
            metrics.verify_cycles.incr(done.profile.verify);
            metrics.degraded_cycles.incr(done.profile.recompute);
            metrics.edt_saved.incr(done.profile.edt_saved);
            metrics.bitplane_words.incr(done.bitplane_words);
            sc_telemetry::event!("accel.tile.done", m1, r1, c1, tile_cycles);
            if done.degraded {
                degraded_tiles.push(t);
                sc_telemetry::event!("accel.tile.degraded", m1, r1, c1);
            }
            cycles += tile_cycles;
            tile_profiles.push(done.profile);
            for (index, value) in done.writes {
                outputs[index] = value;
            }
        }
        Ok(LayerRun { outputs, cycles, traffic, degraded_tiles, tiles: tile_profiles })
    }

    /// The per-tile bill [`run_layer_at`](Self::run_layer_at) makes for
    /// this layer at this tier, computed without inputs: with no fault
    /// site armed, it equals the [`LayerRun::tiles`] of every run of the
    /// layer that succeeds. It is a function of geometry, weights, tier
    /// and tiling only, records no metric, span or event, and runs on
    /// the caller's thread.
    ///
    /// # Errors
    ///
    /// As [`run_layer_at`](Self::run_layer_at), less the input checks.
    pub fn bill(
        &self,
        g: &ConvGeometry,
        weights: &[i32],
        effective_bits: Option<u32>,
    ) -> Result<Vec<TileProfile>, Error> {
        self.check_layer(g, weights, effective_bits)?;
        // A unit's sums depend on neither its lane codes nor its lane
        // count, so one lane of x = 0 codes yields them.
        let zeros = LaneCodes::new(self.n, 1, &vec![0; g.depth()])?;
        let sums = weights
            .chunks(g.depth())
            .map(|ws| Ok(self.run_unit(ws, &zeros, effective_bits)?.1))
            .collect::<Result<Vec<_>, Error>>()?;
        Ok(self.tiles(g, &sums).into_iter().map(|(_, (bill, _))| bill).collect())
    }

    /// The checks every layer passes before any unit runs: the tiling,
    /// the accumulator width, the geometry, the tier and the weight
    /// buffer's length.
    fn check_layer(
        &self,
        g: &ConvGeometry,
        weights: &[i32],
        effective_bits: Option<u32>,
    ) -> Result<(), Error> {
        let Tiling { t_m, t_r, t_c } = self.tiling;
        if t_m == 0 || t_r == 0 || t_c == 0 {
            return Err(Error::InvalidConfig {
                what: "tiling".into(),
                reason: format!("{:?} has a zero tile dimension", self.tiling),
            });
        }
        // `SaturatingAccumulator` holds 2..=62 bits; N ≥ 2 covers the
        // lower end.
        let width = self.n.bits().saturating_add(self.extra_bits);
        if width > 62 {
            return Err(Error::InvalidConfig {
                what: "accumulator width N + A".into(),
                reason: format!(
                    "{} + {} = {width} bits exceeds the 62-bit accumulator",
                    self.n.bits(),
                    self.extra_bits
                ),
            });
        }
        if !g.is_valid() {
            return Err(Error::InvalidGeometry { geometry: format!("{g:?}") });
        }
        if let Some(s) = effective_bits {
            EarlyTerminationScMac::new(self.n, s)?;
        }
        if weights.len() != g.m * g.depth() {
            return Err(Error::LengthMismatch { expected: g.m * g.depth(), actual: weights.len() });
        }
        Ok(())
    }

    /// Fig. 4: the layer's tiles in the canonical `(m1, r1, c1)` nest
    /// order, each with its output ranges and the bill [`tile_bill`]
    /// makes from its units' `sums`.
    fn tiles(&self, g: &ConvGeometry, sums: &[UnitSums]) -> Vec<(TileRanges, (TileProfile, u64))> {
        let Tiling { t_m, t_r, t_c } = self.tiling;
        let (r, c) = (g.r(), g.c());
        let mut tiles = Vec::new();
        for m1 in (0..g.m).step_by(t_m) {
            let m_hi = (m1 + t_m).min(g.m);
            let bill = tile_bill(&sums[m1..m_hi]);
            for r1 in (0..r).step_by(t_r) {
                for c1 in (0..c).step_by(t_c) {
                    let ranges = [(m1, m_hi), (r1, (r1 + t_r).min(r)), (c1, (c1 + t_c).min(c))];
                    tiles.push((ranges, bill));
                }
            }
        }
        tiles
    }

    /// Stages a code buffer through a parity-protected SRAM bank, its
    /// fault draws keyed by `key`, when its fault site is armed;
    /// `Ok(None)` leaves the original buffer in use. Scrub-on-read repairs what parity can see; masked
    /// corruption is clamped into the code range (the operand register
    /// physically holds `N` bits).
    ///
    /// # Errors
    ///
    /// Returns [`Error::CodeOutOfRange`] for the first code that does not
    /// fit the bank's `N`-bit words. An armed bank stages every word, so
    /// it rejects a bad code even where no output reads it.
    fn stage_codes(&self, bank: &str, codes: &[i32], key: u64) -> Result<Option<Vec<i32>>, Error> {
        if sc_fault::site(&format!("accel.sram.{bank}")).is_none() {
            return Ok(None);
        }
        let bias = self.n.half_scale() as i64;
        let (lo, hi) = self.n.signed_range();
        let mut sram = ParitySram::new(bank, self.n.bits(), codes.len());
        sram.set_fault_key(key);
        for (addr, &code) in codes.iter().enumerate() {
            sram.write(addr, self.n.check_signed(code as i64)?.to_offset_binary() as u64);
        }
        Ok(Some(
            (0..codes.len())
                .map(|addr| (sram.read(addr) as i64 - bias).clamp(lo, hi) as i32)
                .collect(),
        ))
    }

    /// The layer's error when its im2col `cols` holds a bad code (`bad`
    /// names the first, in term order). Codes are named in (map, term,
    /// lane) order, each weight before its term's lane codes, so a bad
    /// weight of map 0 (`ws`) at or before that term is named instead.
    fn first_error(&self, bad: Error, cols: &[i32], lanes: usize, ws: &[i32]) -> Error {
        let check = |code: i32| self.n.check_signed(code as i64).err();
        let Some(at) = cols.iter().position(|&x| check(x).is_some()) else { return bad };
        ws[..=at / lanes].iter().find_map(|&w| check(w)).unwrap_or(bad)
    }

    /// Verifies one tile's outputs under an armed `accel.tile.output`
    /// site: each attempt computes two corrupted replicas of the clean
    /// result (the MAC array is deterministic, so the replicas differ
    /// only through fault draws), range-checks them against the
    /// accumulator limits, and compares. Transient and starvation
    /// faults draw per `(tile, attempt, replica)`, so retries see fresh
    /// exposure; stuck-at faults draw per tile only — a permanent
    /// defect corrupts both replicas identically and slips through
    /// re-execution as `fault.masked`, exactly as in hardware.
    ///
    /// After `1 + retries` failed attempts the tile either degrades to
    /// the truncated-stream progressive-precision recompute (accepted,
    /// recorded, billed) or fails with [`Error::RetryExhausted`].
    #[allow(clippy::too_many_arguments)]
    fn verify_tile(
        &self,
        site: &FaultSite,
        t: usize,
        clean: ComputedTile,
        g: &ConvGeometry,
        input: &[i32],
        weights: &[i32],
        m_range: (usize, usize),
        r_range: (usize, usize),
        c_range: (usize, usize),
        effective_bits: Option<u32>,
    ) -> Result<VerifiedTile, Error> {
        let (mut profile, base_words, clean_writes) = clean;
        let base_cycles = profile.compute;
        let acc = SaturatingAccumulator::new(self.n, self.extra_bits);
        let (lo, hi) = acc.range();
        let width = acc.width();
        let attempts = 1 + self.policy.retries;
        for attempt in 0..attempts {
            // The first attempt reuses the base compute as replica A;
            // every comparison needs one more replica.
            profile.verify += if attempt == 0 { base_cycles } else { 2 * base_cycles };
            let a = self.corrupt_writes(site, t, attempt, 0, width, &clean_writes);
            let b = self.corrupt_writes(site, t, attempt, 1, width, &clean_writes);
            if a.iter().any(|&(_, v)| v < lo || v > hi) {
                sc_fault::record_detected(1);
                continue;
            }
            if a != b {
                sc_fault::record_detected(1);
                continue;
            }
            if a != clean_writes {
                sc_fault::record_masked(1);
            }
            return Ok((profile, base_words, a, false));
        }
        if !self.policy.degrade {
            return Err(Error::RetryExhausted { what: format!("tile {t} outputs"), attempts });
        }
        sc_fault::record_degraded(1);
        // Under a layer-wide quality tier the degraded recompute never
        // runs *above* the tier it is rescuing.
        let s = self
            .policy
            .degrade_bits
            .clamp(1, self.n.bits())
            .min(effective_bits.unwrap_or(u32::MAX));
        let (degraded, deg_words, deg_writes) =
            self.run_tile(g, input, weights, m_range, r_range, c_range, s)?;
        profile.recompute = degraded.compute;
        profile.edt_saved += degraded.edt_saved;
        Ok((profile, base_words + deg_words, deg_writes, true))
    }

    /// Applies the `accel.tile.output` fault draws to one replica of a
    /// tile's write-back list.
    fn corrupt_writes(
        &self,
        site: &FaultSite,
        t: usize,
        attempt: u32,
        replica: u64,
        width: u32,
        writes: &[(usize, i64)],
    ) -> Vec<(usize, i64)> {
        let kind = site.kind();
        let per_attempt = matches!(kind, FaultKind::Transient | FaultKind::Starve);
        let mut instance = (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if per_attempt {
            instance ^= (attempt as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
            instance ^= (replica + 1).wrapping_mul(0x1656_67B1_9E37_79F9);
        }
        let mut out = writes.to_vec();
        for (k, (_, v)) in out.iter_mut().enumerate() {
            if let Some(entropy) = site.transient(instance, k as u64) {
                let bit = (entropy >> 8) as u32 % width;
                *v = match kind {
                    FaultKind::Transient => flip_word_bit(*v, bit, width),
                    FaultKind::StuckAt0 => force_word_bit(*v, bit, width, false),
                    FaultKind::StuckAt1 => force_word_bit(*v, bit, width, true),
                    FaultKind::Starve => 0,
                };
            }
        }
        out
    }

    /// Recomputes one `(m1..m_hi, r1..r_hi, c1..c_hi)` tile on its own
    /// in the degraded progressive-precision mode: every MAC terminates
    /// after the top `s` weight bits, whatever the configured
    /// arithmetic. The tile's patch is gathered onto the engine's
    /// `T_R·T_C` lanes and each of its units runs through
    /// [`run_unit`](Self::run_unit), the same kernel as the layer-wide
    /// pass. Returns the tile's bill ([`tile_bill`]) and its
    /// `(output index, value)` write-back list in `(m, r, c)` order.
    #[allow(clippy::too_many_arguments)]
    fn run_tile(
        &self,
        g: &ConvGeometry,
        input: &[i32],
        weights: &[i32],
        (m1, m_hi): (usize, usize),
        (r1, r_hi): (usize, usize),
        (c1, c_hi): (usize, usize),
        s: u32,
    ) -> Result<ComputedTile, Error> {
        let (r, c, depth) = (g.r(), g.c(), g.depth());
        let Tiling { t_r, t_c, .. } = self.tiling;
        let patch = gather_patch(g, input, (r1, r_hi), (c1, c_hi), (t_r, t_c));
        let patch = LaneCodes::new(self.n, t_r * t_c, &patch)?;
        let mut sums = Vec::with_capacity(m_hi - m1);
        let mut writes = Vec::with_capacity((m_hi - m1) * (r_hi - r1) * (c_hi - c1));
        for m in m1..m_hi {
            let (values, unit) =
                self.run_unit(&weights[m * depth..(m + 1) * depth], &patch, Some(s))?;
            sums.push(unit);
            for (lr, rr) in (r1..r_hi).enumerate() {
                for (lc, cc) in (c1..c_hi).enumerate() {
                    writes.push(((m * r + rr) * c + cc, values[lr * t_c + lc]));
                }
            }
        }
        let (bill, words) = tile_bill(&sums);
        Ok((bill, words, writes))
    }

    /// Runs one vector unit: streams the weight row `ws` (one term per
    /// `(z, i, j)`) against the matching rows of the checked `cols`, and
    /// returns the lane values with the unit's sums. `tier = Some(s)`
    /// runs the truncated-stream mode (top `s` weight bits) whatever the
    /// configured arithmetic. Each weight is decoded once for all lanes:
    /// one shared row of `P_k(u)` counts for the SC designs, one range
    /// check for fixed point.
    fn run_unit(
        &self,
        ws: &[i32],
        cols: &LaneCodes,
        tier: Option<u32>,
    ) -> Result<(Vec<i64>, UnitSums), Error> {
        let lanes = cols.lanes();
        let terms = ws.iter().copied().zip(cols.rows());
        let mut sums = UnitSums::default();
        let values = match (tier, self.arithmetic) {
            (Some(s), _) => {
                let mut mvm = BiscMvm::new(self.n, lanes, self.extra_bits);
                for (w, xs) in terms {
                    let t = mvm.accumulate_truncated_row(w, xs, s)?;
                    sums.cycles += t;
                    // What the full-precision serial schedule would have
                    // billed for this term: |w| cycles.
                    sums.full += w.unsigned_abs() as u64;
                    sums.words += bitplane::words_in_prefix(t);
                }
                mvm.read()
            }
            (None, AccelArithmetic::ProposedSerial) => {
                let mut mvm = BiscMvm::new(self.n, lanes, self.extra_bits);
                for (w, xs) in terms {
                    let k = mvm.accumulate_row(w, xs)?;
                    sums.cycles += k;
                    sums.words += bitplane::words_in_prefix(k);
                }
                mvm.read()
            }
            (None, AccelArithmetic::ProposedParallel(b)) => {
                let mut mvm = BitParallelMvm::new(self.n, lanes, self.extra_bits, b)?;
                for (w, xs) in terms {
                    sums.cycles += mvm.accumulate_row(w, xs)?;
                    // The columns tile the same |w|-cycle prefix.
                    sums.words += bitplane::words_in_prefix(w.unsigned_abs() as u64);
                }
                mvm.read()
            }
            (None, AccelArithmetic::Fixed) => {
                let mul = FixedMul::new(self.n);
                let (lo, hi) = SaturatingAccumulator::new(self.n, self.extra_bits).range();
                let mut accs = vec![0i64; lanes];
                for (w, xs) in terms {
                    self.n.check_signed(w as i64)?;
                    sums.cycles += 1; // one cycle per term
                    if w == 0 {
                        // Every product is 0 and every lane in range.
                        continue;
                    }
                    // The saturating accumulator's clamp, per product.
                    for (acc, x) in accs.iter_mut().zip(xs.codes()) {
                        *acc = (*acc + mul.multiply_unchecked(w, x)).clamp(lo, hi);
                    }
                }
                accs
            }
        };
        Ok((values, sums))
    }
}

/// Gathers the input patch of output rows `r1..r_hi` × columns
/// `c1..c_hi` once, term-major (an im2col): row `(z, i, j)` of the
/// result holds, on a `t_r × t_c` lane grid (lane `lr·t_c + lc`), the
/// codes a unit multiplies by its weight `W[m][z][i][j]`. The layer-wide
/// pass gathers the whole `R × C` output plane; the degraded recompute
/// gathers one tile onto the engine's `T_R × T_C` lanes, where lanes past
/// the layer edge carry x = 0, like disabled PEs in hardware.
fn gather_patch(
    g: &ConvGeometry,
    input: &[i32],
    (r1, r_hi): (usize, usize),
    (c1, c_hi): (usize, usize),
    (t_r, t_c): (usize, usize),
) -> Vec<i32> {
    let p = t_r * t_c;
    let mut patch = vec![0i32; g.depth() * p];
    let taps = (0..g.z).flat_map(|z| (0..g.k).flat_map(move |i| (0..g.k).map(move |j| (z, i, j))));
    for ((z, i, j), row) in taps.zip(patch.chunks_mut(p)) {
        for (lr, rr) in (r1..r_hi).enumerate() {
            let y = (z * g.in_h + rr * g.stride + i) * g.in_w + j;
            for (lc, cc) in (c1..c_hi).enumerate() {
                row[lr * t_c + lc] = input[y + cc * g.stride];
            }
        }
    }
    patch
}

/// Per-tile accumulator merged by [`TileEngine::run_layer`] in
/// deterministic tile order.
struct TileDone {
    input_words: u64,
    weight_words: u64,
    output_words: u64,
    /// Packed bitplane words of the prefixes this tile's terms scanned
    /// (0 for fixed-point arithmetic).
    bitplane_words: u64,
    profile: TileProfile,
    writes: Vec<(usize, i64)>,
    degraded: bool,
}

/// Flips one flip-flop of a `width`-bit two's-complement word, staying
/// sign-extended (mirrors `SaturatingAccumulator::flip_bit`, but on the
/// write-back value, which may sit outside any live accumulator).
fn flip_word_bit(value: i64, bit: u32, width: u32) -> i64 {
    let mask = (1u64 << width) - 1;
    let raw = (value as u64 ^ (1u64 << (bit % width))) & mask;
    sign_extend(raw, width)
}

/// Forces one flip-flop of a `width`-bit two's-complement word.
fn force_word_bit(value: i64, bit: u32, width: u32, high: bool) -> i64 {
    let mask = (1u64 << width) - 1;
    let select = 1u64 << (bit % width);
    let raw = if high { value as u64 | select } else { value as u64 & !select } & mask;
    sign_extend(raw, width)
}

fn sign_extend(raw: u64, width: u32) -> i64 {
    let mask = (1u64 << width) - 1;
    let sign = 1u64 << (width - 1);
    if raw & sign != 0 {
        (raw | !mask) as i64
    } else {
        raw as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::mac::{SaturatingAccumulator, SignedScMac};

    fn small_geometry() -> ConvGeometry {
        ConvGeometry { z: 2, in_h: 7, in_w: 7, m: 3, k: 3, stride: 1 }
    }

    fn test_data(g: &ConvGeometry, n: Precision) -> (Vec<i32>, Vec<i32>) {
        let h = n.half_scale() as i32;
        let input: Vec<i32> =
            (0..g.z * g.in_h * g.in_w).map(|i| ((i as i32 * 37 + 11) % (2 * h)) - h).collect();
        let weights: Vec<i32> =
            (0..g.m * g.depth()).map(|i| ((i as i32 * 13 + 5) % 21) - 10).collect();
        (input, weights)
    }

    /// Golden model: per-output saturating sum of signed SC-MAC products.
    fn golden(g: &ConvGeometry, n: Precision, input: &[i32], weights: &[i32], a: u32) -> Vec<i64> {
        let mac = SignedScMac::new(n);
        let (r, c) = (g.r(), g.c());
        let mut out = vec![0i64; g.m * r * c];
        for m in 0..g.m {
            for rr in 0..r {
                for cc in 0..c {
                    let mut acc = SaturatingAccumulator::new(n, a);
                    for z in 0..g.z {
                        for i in 0..g.k {
                            for j in 0..g.k {
                                let w = weights[(m * g.z + z) * g.k * g.k + i * g.k + j];
                                let x = input
                                    [(z * g.in_h + rr * g.stride + i) * g.in_w + cc * g.stride + j];
                                acc.add(mac.multiply(w, x).unwrap().value);
                            }
                        }
                    }
                    out[(m * r + rr) * c + cc] = acc.value();
                }
            }
        }
        out
    }

    #[test]
    fn engine_matches_golden_for_awkward_tilings() {
        let g = small_geometry();
        let n = Precision::new(7).unwrap();
        let (input, weights) = test_data(&g, n);
        let gold = golden(&g, n, &input, &weights, 8);
        // Tile sizes that do and do not divide the output evenly.
        for tiling in [
            Tiling { t_m: 1, t_r: 1, t_c: 1 },
            Tiling { t_m: 2, t_r: 2, t_c: 3 },
            Tiling { t_m: 4, t_r: 5, t_c: 5 },
            Tiling { t_m: 3, t_r: 4, t_c: 2 },
        ] {
            let engine = TileEngine::new(n, tiling, AccelArithmetic::ProposedSerial, 8);
            let run = engine.run_layer(&g, &input, &weights).unwrap();
            assert_eq!(run.outputs, gold, "tiling {tiling:?}");
        }
    }

    #[test]
    fn bit_parallel_engine_is_bit_exact_and_faster() {
        let g = small_geometry();
        let n = Precision::new(8).unwrap();
        let (input, weights) = test_data(&g, n);
        let tiling = Tiling { t_m: 2, t_r: 2, t_c: 2 };
        let serial = TileEngine::new(n, tiling, AccelArithmetic::ProposedSerial, 8)
            .run_layer(&g, &input, &weights)
            .unwrap();
        let parallel = TileEngine::new(n, tiling, AccelArithmetic::ProposedParallel(8), 8)
            .run_layer(&g, &input, &weights)
            .unwrap();
        assert_eq!(serial.outputs, parallel.outputs);
        assert!(parallel.cycles < serial.cycles, "{} vs {}", parallel.cycles, serial.cycles);
        assert!(parallel.cycles >= serial.cycles / 8);
    }

    #[test]
    fn fixed_engine_takes_d_cycles_per_unit() {
        let g = small_geometry();
        let n = Precision::new(8).unwrap();
        let (input, weights) = test_data(&g, n);
        let tiling = Tiling { t_m: 3, t_r: 5, t_c: 5 };
        let run = TileEngine::new(n, tiling, AccelArithmetic::Fixed, 8)
            .run_layer(&g, &input, &weights)
            .unwrap();
        // One tile in R/C (5×5 covers the whole output), one in M.
        assert_eq!(run.cycles, g.depth() as u64);
    }

    #[test]
    fn proposed_cycles_equal_max_group_weight_sum() {
        let g = ConvGeometry { z: 1, in_h: 5, in_w: 5, m: 2, k: 3, stride: 1 };
        let n = Precision::new(8).unwrap();
        let input = vec![10i32; 25];
        // Group 0 weights sum |w| = 9·2 = 18; group 1 sum = 9·5 = 45.
        let mut weights = vec![2i32; 9];
        weights.extend(vec![-5i32; 9]);
        let tiling = Tiling { t_m: 2, t_r: 3, t_c: 3 };
        let run = TileEngine::new(n, tiling, AccelArithmetic::ProposedSerial, 8)
            .run_layer(&g, &input, &weights)
            .unwrap();
        assert_eq!(run.cycles, 45);
    }

    #[test]
    fn traffic_accounting_counts_every_output_once() {
        let g = small_geometry();
        let n = Precision::new(6).unwrap();
        let (input, weights) = test_data(&g, n);
        let tiling = Tiling { t_m: 2, t_r: 2, t_c: 2 };
        let run = TileEngine::new(n, tiling, AccelArithmetic::ProposedSerial, 8)
            .run_layer(&g, &input, &weights)
            .unwrap();
        assert_eq!(run.traffic.output_words, (g.m * g.r() * g.c()) as u64);
        assert!(run.traffic.input_words > 0);
        assert!(run.traffic.weight_words >= (g.m * g.depth()) as u64);
    }

    #[test]
    fn invalid_geometry_is_an_error_not_a_panic() {
        let n = Precision::new(6).unwrap();
        let engine = TileEngine::new(n, Tiling::default(), AccelArithmetic::Fixed, 2);
        // Kernel larger than the input plane: a malformed request must
        // surface as a serving-path error.
        let g = ConvGeometry { z: 1, in_h: 2, in_w: 8, m: 1, k: 3, stride: 1 };
        let run = engine.run_layer(&g, &[0; 16], &[0; 9]).err();
        match &run {
            Some(Error::InvalidGeometry { .. }) => {}
            other => panic!("expected InvalidGeometry, got {other:?}"),
        }
        assert_eq!(engine.bill(&g, &[0; 9], None).err(), run);
    }

    #[test]
    fn zero_tile_dimension_is_an_error_not_a_panic() {
        let g = small_geometry();
        let n = Precision::new(6).unwrap();
        let (input, weights) = test_data(&g, n);
        for tiling in [
            Tiling { t_m: 0, t_r: 4, t_c: 4 },
            Tiling { t_m: 16, t_r: 0, t_c: 4 },
            Tiling { t_m: 16, t_r: 4, t_c: 0 },
        ] {
            let engine = TileEngine::new(n, tiling, AccelArithmetic::ProposedSerial, 2);
            let run = engine.run_layer(&g, &input, &weights).err();
            match &run {
                Some(Error::InvalidConfig { what, .. }) => assert_eq!(what, "tiling"),
                other => panic!("{tiling:?}: expected InvalidConfig, got {other:?}"),
            }
            assert_eq!(engine.bill(&g, &weights, None).err(), run, "{tiling:?}");
        }
    }

    #[test]
    fn oversized_accumulator_is_an_error_not_a_panic() {
        let g = small_geometry();
        let n = Precision::new(16).unwrap();
        let (input, weights) = test_data(&g, n);
        for arithmetic in [AccelArithmetic::ProposedSerial, AccelArithmetic::Fixed] {
            // 16 + 46 = 62 bits is the widest accumulator; one more bit
            // must be rejected before any unit runs.
            let engine = TileEngine::new(n, Tiling::default(), arithmetic, 46);
            assert!(engine.run_layer(&g, &input, &weights).is_ok());
            assert!(engine.bill(&g, &weights, None).is_ok());
            let engine = TileEngine::new(n, Tiling::default(), arithmetic, 47);
            let run = engine.run_layer(&g, &input, &weights).err();
            match &run {
                Some(Error::InvalidConfig { what, reason }) => {
                    assert_eq!(what, "accumulator width N + A");
                    assert!(reason.contains("63"), "{reason}");
                }
                other => panic!("{arithmetic:?}: expected InvalidConfig, got {other:?}"),
            }
            assert_eq!(engine.bill(&g, &weights, None).err(), run, "{arithmetic:?}");
        }
    }

    #[test]
    fn full_tier_is_bitwise_identical_to_run_layer() {
        let g = small_geometry();
        let n = Precision::new(7).unwrap();
        let (input, weights) = test_data(&g, n);
        let engine = TileEngine::new(
            n,
            Tiling { t_m: 2, t_r: 2, t_c: 3 },
            AccelArithmetic::ProposedSerial,
            8,
        );
        let full = engine.run_layer(&g, &input, &weights).unwrap();
        let tier_n = engine.run_layer_at(&g, &input, &weights, Some(n.bits())).unwrap();
        // s = N early termination is exactly the full multiplier, but
        // EDT latency is ⌊|w|⌋ per term with no shift — cycles may
        // differ from the lock-step MVM; outputs must not.
        assert_eq!(full.outputs, tier_n.outputs);
    }

    #[test]
    fn degraded_tiers_shorten_streams_and_bound_error() {
        let g = small_geometry();
        let n = Precision::new(8).unwrap();
        let (input, weights) = test_data(&g, n);
        let engine = TileEngine::new(
            n,
            Tiling { t_m: 2, t_r: 2, t_c: 2 },
            AccelArithmetic::ProposedSerial,
            8,
        );
        let full = engine.run_layer(&g, &input, &weights).unwrap();
        let mut prev_cycles = full.cycles;
        for s in [6u32, 4, 2] {
            let run = engine.run_layer_at(&g, &input, &weights, Some(s)).unwrap();
            // Streams shrink geometrically (to zero once 2^(N−s) exceeds
            // every |w|), so cycles are monotone and below full.
            assert!(run.cycles < full.cycles, "s={s}: {} !< {}", run.cycles, full.cycles);
            assert!(run.cycles <= prev_cycles, "s={s}: {} > {prev_cycles}", run.cycles);
            prev_cycles = run.cycles;
            // Per-output error vs the full-precision run is bounded by
            // depth × (EDT bound + the SC-MAC's own N/2 bound).
            let bound = g.depth() as f64
                * (EarlyTerminationScMac::new(n, s).unwrap().error_bound() + n.bits() as f64 / 2.0);
            for (a, b) in run.outputs.iter().zip(&full.outputs) {
                assert!(((a - b).abs() as f64) <= bound, "s={s}: |{a} - {b}| > {bound}");
            }
        }
        assert!(engine.run_layer_at(&g, &input, &weights, Some(0)).is_err());
        assert!(engine.run_layer_at(&g, &input, &weights, Some(9)).is_err());
    }

    #[test]
    fn tile_profiles_sum_to_layer_cycles_and_track_edt_savings() {
        let g = small_geometry();
        let n = Precision::new(8).unwrap();
        let (input, weights) = test_data(&g, n);
        let engine = TileEngine::new(
            n,
            Tiling { t_m: 2, t_r: 2, t_c: 2 },
            AccelArithmetic::ProposedSerial,
            8,
        );
        let full = engine.run_layer(&g, &input, &weights).unwrap();
        assert!(!full.tiles.is_empty());
        assert_eq!(full.tiles.iter().map(TileProfile::cycles).sum::<u64>(), full.cycles);
        // Clean full-precision run: pure compute, nothing saved.
        for tp in &full.tiles {
            assert_eq!(tp.verify, 0);
            assert_eq!(tp.recompute, 0);
            assert_eq!(tp.edt_saved, 0);
            assert_eq!(tp.compute, tp.cycles());
        }
        // A truncated tier saves cycles versus the full serial schedule,
        // and the savings account exactly for the latency gap per tile.
        let tier = engine.run_layer_at(&g, &input, &weights, Some(4)).unwrap();
        assert_eq!(tier.tiles.iter().map(TileProfile::cycles).sum::<u64>(), tier.cycles);
        let saved: u64 = tier.tiles.iter().map(|t| t.edt_saved).sum();
        assert!(saved > 0, "s=4 must shorten streams on this data");
        for (tp, fp) in tier.tiles.iter().zip(&full.tiles) {
            assert_eq!(tp.compute + tp.edt_saved, fp.compute, "savings + billed = full schedule");
        }
    }

    #[test]
    fn mismatched_buffers_rejected() {
        let g = small_geometry();
        let n = Precision::new(6).unwrap();
        let engine = TileEngine::new(n, Tiling::default(), AccelArithmetic::Fixed, 2);
        assert!(engine.run_layer(&g, &[0; 3], &[0; 54]).is_err());
        let run = engine.run_layer(&g, &[0; 98], &[0; 3]).err();
        assert_eq!(run, Some(Error::LengthMismatch { expected: 54, actual: 3 }));
        assert_eq!(engine.bill(&g, &[0; 3], None).err(), run);
    }
}
