//! The capacity-enforcing Memory Unit runtime.
//!
//! The paper provisions the packed-bit memory from the *worst case*
//! measured occupancy (Tables II–V); until this module, the simulation
//! kept the packed stream in unbounded `Vec`s and merely counted
//! would-be overflows. [`MemoryUnit`] closes that gap: the per-row packed
//! stream is mirrored word-by-word into real [`sw_fpga::BramFifo`]
//! storage (512×36 BRAM18s, exactly the planner's `packed_brams`
//! provisioning), occupancy is enforced against the provisioned bit
//! budget, and a would-be overflow triggers a configurable
//! [`OverflowPolicy`]:
//!
//! * [`OverflowPolicy::Fail`] — propagate a typed
//!   [`FifoError::Overflow`] through [`crate::error::SwError`];
//! * [`OverflowPolicy::Stall`] — accept the group and account the
//!   backpressure cycles the producer would have to wait for the deficit
//!   to drain (one 36-bit word per clock);
//! * [`OverflowPolicy::DegradeLossy`] — let the datapath escalate the
//!   threshold `T` (the same knob [`crate::adaptive`] tunes between
//!   frames) until the group fits, recording each escalation.
//!
//! Every stored word is a splitmix64 fingerprint of its (group,
//! word) position; retirement re-derives and compares them, so any
//! corruption of the BRAM stream — e.g. the forced-overflow overwrite
//! fault from [`crate::faults`] — is *detected* as a typed error rather
//! than silently reconstructed.

use crate::analysis::measure_frame;
use crate::codec::LineCodecKind;
use crate::config::ArchConfig;
use crate::error::{Result, SwError};
use crate::faults::splitmix64;
use crate::planner::{plan, BramPlan, MgmtAccounting};
use crate::Coeff;
use std::collections::VecDeque;
use sw_fpga::bram::{Bram18Config, BRAM18_BITS};
use sw_fpga::bram_fifo::BramFifo;
use sw_fpga::fifo::FifoError;
use sw_fpga::sim::Watermark;
use sw_image::ImageU8;
use sw_telemetry::{CounterTally, Gauge, TelemetryHandle};

/// Memory-unit word width: the 512×36 BRAM18 aspect ratio the packed
/// stream is stored in.
pub const WORD_BITS: u64 = 36;

/// What to do when a packed group would exceed the provisioned budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Propagate a typed [`FifoError::Overflow`]; the frame aborts.
    Fail,
    /// Backpressure: accept the group and count the stall cycles needed
    /// to drain the deficit at one word per clock.
    Stall,
    /// Escalate the lossy threshold `T` until the group fits (up to
    /// [`MemoryUnitConfig::max_threshold`]), recording each escalation.
    DegradeLossy,
}

impl OverflowPolicy {
    /// Every policy, for sweeps.
    pub const ALL: [OverflowPolicy; 3] = [
        OverflowPolicy::Fail,
        OverflowPolicy::Stall,
        OverflowPolicy::DegradeLossy,
    ];

    /// Stable lower-case name (the CLI's `--overflow-policy` values).
    pub fn name(self) -> &'static str {
        match self {
            OverflowPolicy::Fail => "fail",
            OverflowPolicy::Stall => "stall",
            OverflowPolicy::DegradeLossy => "degrade",
        }
    }

    /// Parse a `--overflow-policy` value.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == s)
    }
}

impl std::fmt::Display for OverflowPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Provisioning and policy for one [`MemoryUnit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryUnitConfig {
    /// Provisioned packed-bit budget.
    pub capacity_bits: u64,
    /// Overflow behaviour.
    pub policy: OverflowPolicy,
    /// Ceiling for [`OverflowPolicy::DegradeLossy`] threshold escalation
    /// (the same saturation point as [`crate::adaptive::AdaptiveConfig`]).
    pub max_threshold: Coeff,
}

impl MemoryUnitConfig {
    /// A budget of `capacity_bits` under `policy`, with the default
    /// escalation ceiling of `T = 16`.
    pub fn new(capacity_bits: u64, policy: OverflowPolicy) -> Self {
        Self {
            capacity_bits: capacity_bits.max(1),
            policy,
            max_threshold: 16,
        }
    }

    /// Size the budget from a planner allocation: the packed-bit BRAMs'
    /// full capacity, exactly what the paper provisions.
    fn from_plan(plan: &BramPlan, policy: OverflowPolicy) -> Self {
        Self::new(u64::from(plan.packed_brams) * BRAM18_BITS, policy)
    }

    /// Provision the budget the way the paper does (Tables II–V): run
    /// `cfg`'s datapath losslessly over `img`, plan the structured BRAM
    /// allocation for the measured peak occupancy, and take the packed
    /// BRAMs' full capacity.
    ///
    /// # Errors
    ///
    /// The probe's [`SwError`]: an invalid geometry fails here exactly as
    /// the real run would.
    pub fn provision(img: &ImageU8, cfg: &ArchConfig, policy: OverflowPolicy) -> Result<Self> {
        let stats = measure_frame(img, &cfg.with_threshold(0))?;
        let p = plan(
            cfg.window,
            cfg.width,
            stats.peak_payload_occupancy,
            MgmtAccounting::Structured,
        );
        Ok(Self::from_plan(&p, policy))
    }

    /// Override the degrade-escalation ceiling.
    pub fn with_max_threshold(mut self, t: Coeff) -> Self {
        self.max_threshold = t;
        self
    }

    /// Divide the budget evenly across `strips` shards (the sharded
    /// runner gives each strip its own memory unit, as hardware would
    /// replicate the block per segment).
    pub fn per_strip(&self, strips: usize) -> Self {
        Self {
            capacity_bits: (self.capacity_bits / strips.max(1) as u64).max(1),
            ..*self
        }
    }
}

/// One packed group in flight through the BRAM word stream.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    bits: u64,
    words_stored: u64,
    seq: u64,
}

/// The capacity-enforcing memory unit: provisioned BRAM18 storage for the
/// packed stream, occupancy accounting, and overflow-policy bookkeeping.
#[derive(Debug, Clone)]
pub struct MemoryUnit {
    cfg: MemoryUnitConfig,
    codec: LineCodecKind,
    fifo: BramFifo,
    in_flight: VecDeque<InFlight>,
    occupancy_bits: u64,
    watermark: Watermark,
    push_seq: u64,
    retire_seq: u64,
    stall_cycles: u64,
    escalations: u64,
    overflow_events: u64,
    // Telemetry — no-ops unless bound; published by `flush_telemetry`.
    m_occ: Gauge,
    m_high: Gauge,
    /// Occupancy changed since the last flush.
    occ_dirty: bool,
    m_stalls: CounterTally,
    m_escalations: CounterTally,
    m_overflow: CounterTally,
}

impl MemoryUnit {
    /// Build the unit for `cfg`, storing `codec`'s packed stream.
    pub fn new(cfg: MemoryUnitConfig, codec: LineCodecKind) -> Self {
        let depth = u32::try_from(cfg.capacity_bits.div_ceil(WORD_BITS))
            .unwrap_or(u32::MAX)
            .max(1);
        Self {
            cfg,
            codec,
            fifo: BramFifo::new(Bram18Config::X36, depth),
            in_flight: VecDeque::new(),
            occupancy_bits: 0,
            watermark: Watermark::new(),
            push_seq: 0,
            retire_seq: 0,
            stall_cycles: 0,
            escalations: 0,
            overflow_events: 0,
            m_occ: Gauge::noop(),
            m_high: Gauge::noop(),
            occ_dirty: false,
            m_stalls: CounterTally::default(),
            m_escalations: CounterTally::default(),
            m_overflow: CounterTally::default(),
        }
    }

    /// Bind instruments under `memunit.<name>.*`. Records are local
    /// until [`Self::flush_telemetry`].
    pub(crate) fn bind_telemetry(&mut self, telemetry: &TelemetryHandle, name: &str) {
        self.m_occ = telemetry.gauge(&format!("memunit.{name}.occupancy_bits"));
        self.m_high = telemetry.gauge(&format!("memunit.{name}.high_water_bits"));
        let counter = |series: &str| {
            telemetry
                .counter(&format!("memunit.{name}.{series}"))
                .tally()
        };
        self.m_stalls = counter("stall_cycles");
        self.m_escalations = counter("escalations");
        self.m_overflow = counter("overflow_events");
    }

    /// Publish the records made since the last flush (the datapath calls
    /// this at the end of every row).
    pub(crate) fn flush_telemetry(&mut self) {
        if std::mem::take(&mut self.occ_dirty) {
            self.m_occ.set(self.occupancy_bits);
            self.m_high.observe_max(self.watermark.max());
        }
        self.m_stalls.flush();
        self.m_escalations.flush();
        self.m_overflow.flush();
    }

    /// The unit's configuration.
    pub fn config(&self) -> MemoryUnitConfig {
        self.cfg
    }

    /// The overflow policy in force.
    pub fn policy(&self) -> OverflowPolicy {
        self.cfg.policy
    }

    /// Provisioned budget in bits.
    pub fn capacity_bits(&self) -> u64 {
        self.cfg.capacity_bits
    }

    /// Current packed occupancy in bits.
    pub fn occupancy_bits(&self) -> u64 {
        self.occupancy_bits
    }

    /// Highest occupancy observed since the last [`MemoryUnit::reset`].
    pub fn high_water_bits(&self) -> u64 {
        self.watermark.max()
    }

    /// Stall cycles accounted this frame (Stall policy).
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Threshold escalations this frame (DegradeLossy policy).
    pub fn escalations(&self) -> u64 {
        self.escalations
    }

    /// Overflow events this frame (budget exceeded and not resolved).
    pub fn overflow_events(&self) -> u64 {
        self.overflow_events
    }

    /// BRAM18s backing the word stream.
    pub fn brams_used(&self) -> u32 {
        self.fifo.brams_used()
    }

    /// Bits by which storing `bits` more would exceed the budget, if any.
    pub(crate) fn deficit(&self, bits: u64) -> Option<u64> {
        let need = self.occupancy_bits + bits;
        (need > self.cfg.capacity_bits).then(|| need - self.cfg.capacity_bits)
    }

    /// The typed error a `Fail`-policy overflow propagates.
    pub(crate) fn overflow_error(&self, bits: u64) -> SwError {
        SwError::Fifo(FifoError::Overflow {
            needed: self.occupancy_bits + bits,
            capacity: self.cfg.capacity_bits,
        })
    }

    /// Account the backpressure a `Stall`-policy overflow costs: the
    /// cycles needed to drain `deficit_bits` at one word per clock.
    /// Returns the cycles charged so the datapath can trace the stall.
    pub(crate) fn record_stall(&mut self, deficit_bits: u64) -> u64 {
        let cycles = deficit_bits.div_ceil(WORD_BITS);
        self.stall_cycles += cycles;
        self.m_stalls.add(cycles);
        cycles
    }

    /// Account one `DegradeLossy` threshold escalation.
    pub(crate) fn record_escalation(&mut self) {
        self.escalations += 1;
        self.m_escalations.inc();
    }

    /// Account one unresolved overflow (saturated degrade, or a codec
    /// that cannot shrink its groups).
    pub(crate) fn record_overflow(&mut self) {
        self.overflow_events += 1;
        self.m_overflow.inc();
    }

    /// Store one packed group of `bits` bits as fingerprinted 36-bit
    /// words. When `corrupt` is set (the forced-overflow fault) the first
    /// stored word is overwritten, to be detected at retirement.
    ///
    /// Words beyond the physical BRAM capacity are held upstream (the
    /// producer register the stall policy models); only what fits is
    /// stored and later verified.
    pub(crate) fn push_group(&mut self, bits: u64, corrupt: bool) {
        let words = bits.div_ceil(WORD_BITS);
        let mut stored = 0;
        for w in 0..words {
            let mut word = fingerprint(self.push_seq, w);
            if corrupt && w == 0 {
                word ^= 1;
            }
            if self.fifo.push(word).is_err() {
                break;
            }
            stored += 1;
        }
        self.in_flight.push_back(InFlight {
            bits,
            words_stored: stored,
            seq: self.push_seq,
        });
        self.push_seq += 1;
        self.occupancy_bits += bits;
        self.watermark.observe(self.occupancy_bits);
        self.occ_dirty = true;
    }

    /// Retire the oldest group: pop its words back out of the BRAMs and
    /// verify every fingerprint. A mismatch (corrupted storage) or a
    /// missing word surfaces as a typed error.
    pub(crate) fn retire_group(&mut self) -> Result<()> {
        let Some(g) = self.in_flight.pop_front() else {
            return Err(SwError::Fifo(FifoError::Underrun));
        };
        for w in 0..g.words_stored {
            let word = self.fifo.pop().map_err(SwError::Fifo)?;
            if word != fingerprint(g.seq, w) {
                return Err(SwError::Decode {
                    codec: self.codec,
                    detail: format!(
                        "memory unit word {w} of group {} failed its fingerprint \
                         check (overflow overwrite or bit upset)",
                        g.seq
                    ),
                });
            }
        }
        self.retire_seq += 1;
        self.occupancy_bits -= g.bits;
        self.occ_dirty = true;
        Ok(())
    }

    /// Retire sequence number of the *next* group to retire (the index
    /// [`crate::faults::FaultInjector::fifo_underflow_at`] matches).
    pub(crate) fn retire_seq(&self) -> u64 {
        self.retire_seq
    }

    /// The forced-underflow fault: the control logic pops a word the FIFO
    /// does not hold. Always a typed error.
    pub(crate) fn force_underflow(&mut self) -> SwError {
        SwError::Fifo(FifoError::Underrun)
    }

    /// Frame boundary: clear contents and per-frame accounting (the
    /// telemetry counters are cumulative and keep running).
    pub fn reset(&mut self) {
        self.fifo.clear();
        self.in_flight.clear();
        self.occupancy_bits = 0;
        self.watermark.reset();
        self.push_seq = 0;
        self.retire_seq = 0;
        self.stall_cycles = 0;
        self.escalations = 0;
        self.overflow_events = 0;
    }
}

/// Deterministic 36-bit fingerprint for word `word` of group `seq`.
fn fingerprint(seq: u64, word: u64) -> u64 {
    splitmix64(seq.wrapping_mul(0x100_0000).wrapping_add(word)) & ((1 << WORD_BITS) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(capacity_bits: u64, policy: OverflowPolicy) -> MemoryUnit {
        MemoryUnit::new(
            MemoryUnitConfig::new(capacity_bits, policy),
            LineCodecKind::Haar,
        )
    }

    #[test]
    fn policy_names_round_trip() {
        for p in OverflowPolicy::ALL {
            assert_eq!(OverflowPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(OverflowPolicy::parse("never"), None);
    }

    #[test]
    fn push_retire_round_trip_verifies_fingerprints() {
        let mut mu = unit(10_000, OverflowPolicy::Fail);
        for bits in [100u64, 36, 1, 720] {
            mu.push_group(bits, false);
        }
        assert_eq!(mu.occupancy_bits(), 857);
        assert_eq!(mu.high_water_bits(), 857);
        for _ in 0..4 {
            mu.retire_group().unwrap();
        }
        assert_eq!(mu.occupancy_bits(), 0);
        assert!(matches!(
            mu.retire_group(),
            Err(SwError::Fifo(FifoError::Underrun))
        ));
    }

    #[test]
    fn corrupted_word_is_detected_at_retirement() {
        let mut mu = unit(10_000, OverflowPolicy::Fail);
        mu.push_group(100, false);
        mu.push_group(100, true);
        mu.retire_group().unwrap();
        match mu.retire_group() {
            Err(SwError::Decode { detail, .. }) => {
                assert!(detail.contains("fingerprint"), "{detail}");
            }
            other => panic!("expected a fingerprint mismatch, got {other:?}"),
        }
    }

    #[test]
    fn deficit_and_stall_accounting() {
        let mut mu = unit(100, OverflowPolicy::Stall);
        assert_eq!(mu.deficit(100), None);
        assert_eq!(mu.deficit(101), Some(1));
        mu.push_group(90, false);
        assert_eq!(mu.deficit(46), Some(36));
        mu.record_stall(36);
        assert_eq!(mu.stall_cycles(), 1);
        mu.record_stall(37);
        assert_eq!(mu.stall_cycles(), 3);
    }

    #[test]
    fn budget_matches_planner_provisioning() {
        let plan = crate::planner::plan(8, 512, 30_000, crate::planner::MgmtAccounting::Structured);
        let cfg = MemoryUnitConfig::from_plan(&plan, OverflowPolicy::DegradeLossy);
        assert_eq!(
            cfg.capacity_bits,
            u64::from(plan.packed_brams) * BRAM18_BITS
        );
        let mu = MemoryUnit::new(cfg, LineCodecKind::Haar);
        // The word stream is provisioned on exactly that many BRAM18s.
        assert_eq!(mu.brams_used(), plan.packed_brams);
    }

    #[test]
    fn per_strip_division_never_zeroes() {
        let cfg = MemoryUnitConfig::new(1000, OverflowPolicy::Stall);
        assert_eq!(cfg.per_strip(8).capacity_bits, 125);
        assert_eq!(cfg.per_strip(2000).capacity_bits, 1);
    }

    #[test]
    fn telemetry_series_use_memunit_prefix() {
        let t = TelemetryHandle::new();
        let mut mu = unit(1000, OverflowPolicy::Stall);
        mu.bind_telemetry(&t, "s0");
        mu.push_group(100, false);
        mu.record_stall(10);
        mu.record_escalation();
        mu.record_overflow();
        mu.flush_telemetry();
        let r = t.report();
        assert_eq!(r.gauges["memunit.s0.occupancy_bits"], 100);
        assert_eq!(r.gauges["memunit.s0.high_water_bits"], 100);
        assert_eq!(r.counters["memunit.s0.stall_cycles"], 1);
        assert_eq!(r.counters["memunit.s0.escalations"], 1);
        assert_eq!(r.counters["memunit.s0.overflow_events"], 1);
    }

    /// Noisy deterministic frame that keeps the packed stream close to
    /// incompressible, so tight budgets actually bind.
    fn noisy_image(w: usize, h: usize) -> sw_image::ImageU8 {
        let mut state = 0x2545_f491u32;
        sw_image::ImageU8::from_fn(w, h, |_, _| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 24) as u8
        })
    }

    fn run_with_budget(
        mu: Option<MemoryUnitConfig>,
        codec: LineCodecKind,
    ) -> crate::error::Result<crate::arch::FrameStats> {
        let (n, w, h) = (4usize, 20usize, 12usize);
        let img = noisy_image(w, h);
        let cfg = crate::config::ArchConfig::new(n, w).with_codec(codec);
        let mut arch = crate::arch::build_arch(&cfg)?;
        arch.set_memory_unit(mu);
        Ok(arch
            .process_frame(&img, &crate::kernels::Tap::top_left(n))?
            .stats)
    }

    /// Edge budget: capacity exactly equal to the measured demand is
    /// sufficient under `Fail`; one bit less overflows with exact
    /// `needed`/`capacity` arithmetic in the typed error.
    #[test]
    fn budget_exactly_equal_to_demand_is_tight() {
        let peak = run_with_budget(None, LineCodecKind::Haar)
            .unwrap()
            .peak_payload_occupancy;
        assert!(peak > WORD_BITS, "fixture must exercise multiple words");

        let exact = run_with_budget(
            Some(MemoryUnitConfig::new(peak, OverflowPolicy::Fail)),
            LineCodecKind::Haar,
        )
        .unwrap();
        assert_eq!(exact.peak_payload_occupancy, peak);
        assert_eq!(exact.overflow_events, 0);
        assert_eq!(exact.stall_cycles, 0);
        assert_eq!(exact.t_escalations, 0);

        // One bit under demand: the first push that reaches the unbounded
        // peak is the first deficit, so `needed` is exactly that peak.
        match run_with_budget(
            Some(MemoryUnitConfig::new(peak - 1, OverflowPolicy::Fail)),
            LineCodecKind::Haar,
        ) {
            Err(SwError::Fifo(FifoError::Overflow { needed, capacity })) => {
                assert_eq!(capacity, peak - 1);
                assert_eq!(needed, peak);
            }
            other => panic!("expected a typed overflow, got {other:?}"),
        }
    }

    /// Edge budget: a single 36-bit word. Unit-level word-granular stall
    /// arithmetic plus the end-to-end `Stall` run it predicts.
    #[test]
    fn one_word_budget_stall_arithmetic() {
        let mut mu = unit(WORD_BITS, OverflowPolicy::Stall);
        assert_eq!(mu.deficit(WORD_BITS), None, "exactly one word fits");
        assert_eq!(mu.deficit(WORD_BITS + 1), Some(1));
        mu.push_group(WORD_BITS, false);
        assert_eq!(mu.deficit(1), Some(1));
        mu.record_stall(1);
        assert_eq!(mu.stall_cycles(), 1, "a 1-bit deficit still costs a word");

        let stats = run_with_budget(
            Some(MemoryUnitConfig::new(WORD_BITS, OverflowPolicy::Stall)),
            LineCodecKind::Haar,
        )
        .unwrap();
        assert!(stats.peak_payload_occupancy > WORD_BITS);
        // Every deficit drains at one word per clock, so the total stall
        // bill is at least the peak deficit's word count.
        let peak_deficit = stats.peak_payload_occupancy - WORD_BITS;
        assert!(
            stats.stall_cycles >= peak_deficit.div_ceil(WORD_BITS),
            "stall_cycles {} below the word-granular floor {}",
            stats.stall_cycles,
            peak_deficit.div_ceil(WORD_BITS)
        );
        assert_eq!(stats.overflow_events, 0);
        assert_eq!(stats.t_escalations, 0);
    }

    /// Edge budget: `max_threshold` saturates with demand still over
    /// budget. Escalations are bounded by `max_threshold − T₀` (the
    /// threshold ratchets monotonically within a frame) and every group
    /// that still cannot fit counts one residual overflow.
    #[test]
    fn max_threshold_saturation_counts_residual_overflows() {
        let budget = MemoryUnitConfig::new(64, OverflowPolicy::DegradeLossy).with_max_threshold(3);
        let stats = run_with_budget(Some(budget), LineCodecKind::Haar).unwrap();
        assert!(stats.t_escalations > 0, "noise must force escalation");
        assert!(
            stats.t_escalations <= 3,
            "threshold ratchets 0→max_threshold at most once per step, got {}",
            stats.t_escalations
        );
        assert!(
            stats.overflow_events > 0,
            "a 64-bit budget must leave residual overflows at T = 3"
        );
        assert_eq!(stats.stall_cycles, 0, "degrade never bills stalls");

        // A codec that cannot shrink its groups records the overflows but
        // performs no escalation at all.
        let stats = run_with_budget(Some(budget), LineCodecKind::Locoi).unwrap();
        assert_eq!(stats.t_escalations, 0, "locoi is not lossy-capable");
        assert!(stats.overflow_events > 0);
    }

    #[test]
    fn reset_clears_frame_state() {
        let mut mu = unit(1000, OverflowPolicy::Stall);
        mu.push_group(500, false);
        mu.record_stall(100);
        mu.record_escalation();
        mu.record_overflow();
        mu.reset();
        assert_eq!(mu.occupancy_bits(), 0);
        assert_eq!(mu.high_water_bits(), 0);
        assert_eq!(mu.stall_cycles(), 0);
        assert_eq!(mu.escalations(), 0);
        assert_eq!(mu.overflow_events(), 0);
        assert!(matches!(
            mu.retire_group(),
            Err(SwError::Fifo(FifoError::Underrun))
        ));
    }
}
