//! Composable channel models: position-dependent rates and strand-level
//! effects layered on top of the base [`ErrorModel`].
//!
//! The paper's premise is that error rates are *not* uniform: trace
//! reconstruction is least reliable in the middle of strands (§3), real
//! sequencers degrade along the read, PCR amplifies some strands far more
//! than others, and whole molecules drop out of the pool. A
//! [`ChannelModel`] captures those effects as independent, composable
//! knobs:
//!
//! - a [`PositionProfile`] that modulates the sub/ins/del rates along the
//!   strand (uniform, linear end-decay, or an arbitrary per-position
//!   table);
//! - a **dropout** probability — each strand is lost entirely with this
//!   probability (an erasure for every codeword crossing it);
//! - a **PCR amplification bias** ([`PcrBias`]) — a per-strand coverage
//!   multiplier with unit mean, skewing how many reads each molecule
//!   receives;
//! - a **burst** model ([`BurstModel`]) — occasional contiguous indel
//!   events, as produced by polymerase slippage and nanopore stalls.
//!
//! [`ChannelModel::uniform`] disables every effect: it is the flat IDS
//! channel of §3, and it draws exactly the RNG stream the flat channel
//! always has, so old seeds keep reproducing the same pools and decodes.

use crate::{ChannelError, ErrorModel};
use dna_strand::{Base, DnaString};
use rand::Rng;
use rand_distr::{Distribution, Gamma};

/// How the per-base error rates vary along the strand.
///
/// The profile yields a non-negative multiplier per position; the base
/// [`ErrorModel`] rates are scaled by it and then clamped so the total
/// event probability never exceeds 1.
///
/// # Examples
///
/// ```
/// use dna_channel::PositionProfile;
///
/// // Nanopore-like decay: clean at the 5' end, noisy at the 3' end.
/// let decay = PositionProfile::linear(0.5, 2.0).unwrap();
/// assert_eq!(decay.multiplier(0, 101), 0.5);
/// assert_eq!(decay.multiplier(100, 101), 2.0);
/// assert!((decay.multiplier(50, 101) - 1.25).abs() < 1e-12);
///
/// // The uniform profile multiplies every position by exactly 1.
/// assert_eq!(PositionProfile::Uniform.multiplier(7, 100), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub enum PositionProfile {
    /// Every position sees the base rates unchanged (multiplier 1.0).
    /// This is the pre-existing behavior and the default.
    #[default]
    Uniform,
    /// The multiplier interpolates linearly from `start` at the first
    /// base to `end` at the last base.
    Linear {
        /// Multiplier at the 5' end (position 0).
        start: f64,
        /// Multiplier at the 3' end (last position).
        end: f64,
    },
    /// An explicit per-position multiplier table. Positions beyond the
    /// table reuse its last entry, so one table serves strands of any
    /// length.
    Table(Vec<f64>),
}

impl PositionProfile {
    /// A validated linear profile.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidProfile`] when either endpoint is
    /// negative or non-finite.
    pub fn linear(start: f64, end: f64) -> Result<PositionProfile, ChannelError> {
        let p = PositionProfile::Linear { start, end };
        p.validate()?;
        Ok(p)
    }

    /// A validated per-position multiplier table.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidProfile`] when the table is empty
    /// or contains a negative or non-finite entry.
    pub fn table(multipliers: impl Into<Vec<f64>>) -> Result<PositionProfile, ChannelError> {
        let p = PositionProfile::Table(multipliers.into());
        p.validate()?;
        Ok(p)
    }

    /// Checks the profile's invariants (used by the validated
    /// constructors and by [`ChannelModel::with_profile`]).
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidProfile`] when a multiplier is
    /// negative or non-finite, or when a table is empty.
    pub fn validate(&self) -> Result<(), ChannelError> {
        let ok = |x: f64| x.is_finite() && x >= 0.0;
        match self {
            PositionProfile::Uniform => Ok(()),
            PositionProfile::Linear { start, end } => {
                if ok(*start) && ok(*end) {
                    Ok(())
                } else {
                    Err(ChannelError::InvalidProfile(format!(
                        "linear profile endpoints must be finite and non-negative, got \
                         start={start} end={end}"
                    )))
                }
            }
            PositionProfile::Table(t) => {
                if t.is_empty() {
                    return Err(ChannelError::InvalidProfile(
                        "per-position table must not be empty".into(),
                    ));
                }
                match t.iter().position(|&m| !ok(m)) {
                    None => Ok(()),
                    Some(i) => Err(ChannelError::InvalidProfile(format!(
                        "table entry {i} ({}) must be finite and non-negative",
                        t[i]
                    ))),
                }
            }
        }
    }

    /// The rate multiplier at `pos` of a strand of `len` bases.
    ///
    /// The uniform profile returns exactly `1.0`, which keeps the scaled
    /// rates bit-identical to the unscaled ones.
    pub fn multiplier(&self, pos: usize, len: usize) -> f64 {
        match self {
            PositionProfile::Uniform => 1.0,
            PositionProfile::Linear { start, end } => {
                if len <= 1 {
                    *start
                } else {
                    start + (end - start) * (pos as f64 / (len - 1) as f64)
                }
            }
            PositionProfile::Table(t) => t[pos.min(t.len() - 1)],
        }
    }

    /// Whether this is the uniform (multiplier-1 everywhere) profile.
    pub fn is_uniform(&self) -> bool {
        matches!(self, PositionProfile::Uniform)
    }
}

/// Per-strand PCR amplification bias: a coverage multiplier drawn from a
/// unit-mean Gamma distribution, `Gamma(shape, 1/shape)`.
///
/// Smaller shapes give heavier skew — a few strands hog the sequencer
/// while others starve, which is exactly the cluster-size inequality the
/// paper's Gamma coverage models at the pool level, now correlated per
/// strand across every coverage draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcrBias {
    shape: f64,
}

impl PcrBias {
    /// A bias with the given Gamma shape.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidPcr`] for non-positive or
    /// non-finite shapes.
    pub fn new(shape: f64) -> Result<PcrBias, ChannelError> {
        if !shape.is_finite() || shape <= 0.0 {
            return Err(ChannelError::InvalidPcr(shape));
        }
        Ok(PcrBias { shape })
    }

    /// The Gamma shape parameter.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Draws one coverage multiplier (mean 1.0).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        Gamma::new(self.shape, 1.0 / self.shape)
            .expect("validated PCR shape")
            .sample(rng)
    }
}

/// Occasional contiguous indel events: each read independently suffers at
/// most one burst — a run of deleted bases or a run of inserted random
/// bases — with probability `rate`, at a uniform position, with a
/// geometric-like length of mean `mean_len` (capped at the strand
/// length).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstModel {
    rate: f64,
    mean_len: f64,
}

impl BurstModel {
    /// A validated burst model.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidBurst`] when `rate` is outside
    /// `[0, 1]` or `mean_len` is below 1 or non-finite.
    pub fn new(rate: f64, mean_len: f64) -> Result<BurstModel, ChannelError> {
        if !rate.is_finite()
            || !(0.0..=1.0).contains(&rate)
            || !mean_len.is_finite()
            || mean_len < 1.0
        {
            return Err(ChannelError::InvalidBurst { rate, mean_len });
        }
        Ok(BurstModel { rate, mean_len })
    }

    /// Per-read burst probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Mean burst length in bases.
    pub fn mean_len(&self) -> f64 {
        self.mean_len
    }

    /// Decides whether (and where) this read suffers a burst. Consumes
    /// RNG draws only when the model is attached to a channel, so
    /// burst-free channels keep their exact noise streams.
    fn plan<R: Rng + ?Sized>(&self, len: usize, rng: &mut R) -> Option<BurstPlan> {
        if len == 0 || rng.gen::<f64>() >= self.rate {
            return None;
        }
        let start = rng.gen_range(0..len);
        // Exponential length of mean (mean_len − 1), shifted by 1, capped
        // at the strand length: mean mean_len, minimum 1.
        let u: f64 = rng.gen();
        let extra = (-(1.0 - u).ln()) * (self.mean_len - 1.0);
        let burst_len = (1.0 + extra.round()).min(len as f64) as usize;
        Some(if rng.gen::<f64>() < 0.5 {
            BurstPlan::Delete {
                start,
                len: burst_len,
            }
        } else {
            BurstPlan::Insert {
                start,
                len: burst_len,
            }
        })
    }
}

/// A contiguous indel event decided per read before the per-base scan
/// (see [`BurstModel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BurstPlan {
    /// Drop the bases in `start..start + len`.
    Delete { start: usize, len: usize },
    /// Insert `len` uniformly random bases before position `start`.
    Insert { start: usize, len: usize },
}

/// Constraint-correlated error stress: content-dependent rate
/// multipliers that punish biologically hostile strand content.
///
/// Real synthesis and sequencing chemistry degrades on exactly the
/// content the synthesis constraints forbid: polymerases slip on long
/// homopolymer runs, and GC-extreme regions melt or bind anomalously.
/// This term makes the simulated channel agree — each position's
/// sub/ins/del rates are multiplied by
///
/// * `1 + run_gain · (run − run_threshold)` when the position sits in a
///   homopolymer run longer than `run_threshold`, and
/// * `1 + gc_gain · extremity`, where *extremity* is how far the local
///   GC fraction (over a `gc_window`-base window centered on the
///   position) falls outside the `[min_gc, max_gc]` band.
///
/// Compliant strands (run ≤ threshold, GC inside the band everywhere)
/// see multiplier 1.0 at every position — their noise is untouched — so
/// the term separates constrained transcoders from unconstrained ones
/// at identical base rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstraintStress {
    run_threshold: usize,
    run_gain: f64,
    gc_window: usize,
    gc_gain: f64,
    min_gc: f64,
    max_gc: f64,
}

impl ConstraintStress {
    /// A validated stress term with the conventional GC band `[0.4, 0.6]`.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidProfile`] when a gain is negative
    /// or non-finite, or a size is zero.
    pub fn new(
        run_threshold: usize,
        run_gain: f64,
        gc_window: usize,
        gc_gain: f64,
    ) -> Result<ConstraintStress, ChannelError> {
        let ok = |x: f64| x.is_finite() && x >= 0.0;
        if !ok(run_gain) || !ok(gc_gain) {
            return Err(ChannelError::InvalidProfile(format!(
                "constraint-stress gains must be finite and non-negative, got \
                 run_gain={run_gain} gc_gain={gc_gain}"
            )));
        }
        if run_threshold == 0 || gc_window == 0 {
            return Err(ChannelError::InvalidProfile(format!(
                "constraint-stress run_threshold ({run_threshold}) and gc_window \
                 ({gc_window}) must be positive"
            )));
        }
        Ok(ConstraintStress {
            run_threshold,
            run_gain,
            gc_window,
            gc_gain,
            min_gc: 0.4,
            max_gc: 0.6,
        })
    }

    /// Replaces the compliant GC band.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidProfile`] for bounds outside
    /// `[0, 1]` or reversed.
    pub fn with_gc_band(
        mut self,
        min_gc: f64,
        max_gc: f64,
    ) -> Result<ConstraintStress, ChannelError> {
        if !(0.0..=1.0).contains(&min_gc) || !(0.0..=1.0).contains(&max_gc) || min_gc > max_gc {
            return Err(ChannelError::InvalidProfile(format!(
                "constraint-stress GC band [{min_gc}, {max_gc}] must be an ordered \
                 sub-interval of [0, 1]"
            )));
        }
        self.min_gc = min_gc;
        self.max_gc = max_gc;
        Ok(self)
    }

    /// Runs longer than this attract extra error.
    pub fn run_threshold(&self) -> usize {
        self.run_threshold
    }

    /// Extra multiplier per base of excess homopolymer run.
    pub fn run_gain(&self) -> f64 {
        self.run_gain
    }

    /// Window (in bases) for the local GC fraction.
    pub fn gc_window(&self) -> usize {
        self.gc_window
    }

    /// Multiplier strength per unit of GC extremity.
    pub fn gc_gain(&self) -> f64 {
        self.gc_gain
    }

    /// The per-position rate multipliers for a transmitted strand —
    /// computed once per strand (two linear passes) and then indexed by
    /// the per-base transmit loop.
    pub fn multipliers(&self, strand: &DnaString) -> Vec<f64> {
        let n = strand.len();
        let mut out = vec![1.0f64; n];
        if n == 0 {
            return out;
        }
        let bases = strand.as_slice();
        // Homopolymer component: every base of an over-long run shares
        // the run's excess-length penalty.
        let mut i = 0usize;
        while i < n {
            let mut j = i + 1;
            while j < n && bases[j] == bases[i] {
                j += 1;
            }
            let run = j - i;
            if run > self.run_threshold {
                let extra = 1.0 + self.run_gain * (run - self.run_threshold) as f64;
                for slot in &mut out[i..j] {
                    *slot *= extra;
                }
            }
            i = j;
        }
        // GC component: windowed fraction via one prefix-sum pass.
        let mut prefix = vec![0usize; n + 1];
        for (k, b) in bases.iter().enumerate() {
            prefix[k + 1] = prefix[k] + usize::from(b.is_gc());
        }
        let half = self.gc_window / 2;
        for (pos, slot) in out.iter_mut().enumerate() {
            let lo = pos.saturating_sub(half);
            let hi = (pos + half + 1).min(n);
            let gc = (prefix[hi] - prefix[lo]) as f64 / (hi - lo) as f64;
            let extremity = (self.min_gc - gc).max(gc - self.max_gc).max(0.0);
            if extremity > 0.0 {
                *slot *= 1.0 + self.gc_gain * extremity;
            }
        }
        out
    }
}

impl Default for ConstraintStress {
    /// The calibration used by the `constraint-stressed` preset: runs
    /// beyond 3 and GC outside `[0.4, 0.6]` over a 16-base window, with
    /// gains strong enough that unconstrained payloads measurably
    /// underperform compliant ones at equal coverage.
    fn default() -> ConstraintStress {
        ConstraintStress::new(3, 1.0, 16, 5.0).expect("static stress parameters are valid")
    }
}

/// A complete channel operating point: base IDS rates plus position- and
/// strand-level reliability skew.
///
/// # Examples
///
/// The flat IDS channel of paper §3 is [`ChannelModel::uniform`]: every
/// source position independently suffers a deletion, an insertion (of a
/// uniform base, before the position), a substitution (by a uniform
/// *different* base), or none.
///
/// Compose the knobs individually — each setter validates:
///
/// ```
/// use dna_channel::{ChannelModel, ErrorModel, PositionProfile};
///
/// # fn main() -> Result<(), dna_channel::ChannelError> {
/// let channel = ChannelModel::uniform(ErrorModel::nanopore(0.06))
///     .with_profile(PositionProfile::linear(0.5, 2.0)?)?
///     .with_dropout(0.02)?   // 2% of molecules vanish outright
///     .with_pcr_bias(1.5)?;  // heavy per-strand amplification skew
/// assert!(!channel.is_uniform());
/// assert_eq!(channel.dropout(), 0.02);
///
/// // Invalid knobs are rejected, not clamped silently:
/// assert!(channel.clone().with_dropout(1.0).is_err());
/// assert!(ChannelModel::uniform(ErrorModel::noiseless())
///     .with_profile(PositionProfile::Table(vec![]))
///     .is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelModel {
    base: ErrorModel,
    profile: PositionProfile,
    dropout: f64,
    pcr: Option<PcrBias>,
    burst: Option<BurstModel>,
    stress: Option<ConstraintStress>,
}

impl ChannelModel {
    /// The classic flat channel: `base` rates at every position, no
    /// dropout, no PCR bias, no bursts. The profile multiplier is exactly
    /// 1.0 and disabled knobs draw nothing, so its reads are the flat
    /// IDS channel's for any seed.
    pub fn uniform(base: ErrorModel) -> ChannelModel {
        ChannelModel {
            base,
            profile: PositionProfile::Uniform,
            dropout: 0.0,
            pcr: None,
            burst: None,
            stress: None,
        }
    }

    /// A nanopore-like preset at total rate `p`: indel-heavy base mix
    /// whose rates decay from half strength at the 5' end to nearly
    /// double at the 3' end — the read-quality rolloff of long-read
    /// sequencers (paper §8 discusses the ≥ 60% indel regime).
    ///
    /// # Panics
    ///
    /// Panics when `p` is not in `[0, 1]`.
    pub fn nanopore_decay(p: f64) -> ChannelModel {
        ChannelModel::uniform(ErrorModel::nanopore(p))
            .with_profile(PositionProfile::Linear {
                start: 0.5,
                end: 1.8,
            })
            .expect("static profile is valid")
    }

    /// A PCR-skewed preset at total rate `p`: uniform thirds base rates,
    /// with heavy per-strand amplification bias (Gamma shape 1.5) so a
    /// few molecules dominate the read pool.
    ///
    /// # Panics
    ///
    /// Panics when `p` is not in `[0, 1]`.
    pub fn pcr_skewed(p: f64) -> ChannelModel {
        ChannelModel::uniform(ErrorModel::uniform(p))
            .with_pcr_bias(1.5)
            .expect("static PCR shape is valid")
    }

    /// A dropout-prone preset at total rate `p`: uniform thirds base
    /// rates, with each molecule lost outright with probability
    /// `dropout` — the strand-loss regime that turns into erasures.
    ///
    /// # Panics
    ///
    /// Panics when `p` is not in `[0, 1]` or `dropout` not in `[0, 1)`.
    pub fn dropout_prone(p: f64, dropout: f64) -> ChannelModel {
        ChannelModel::uniform(ErrorModel::uniform(p))
            .with_dropout(dropout)
            .expect("dropout must lie in [0, 1)")
    }

    /// A constraint-stressed preset at total rate `p`: the nanopore base
    /// mix plus content-dependent multipliers ([`ConstraintStress`]) that
    /// punish homopolymer runs beyond 3 and GC excursions outside
    /// `[0.4, 0.6]` — the regime where biologically compliant
    /// transcoders out-decode the unconstrained direct mapping at
    /// identical coverage.
    ///
    /// # Panics
    ///
    /// Panics when `p` is not in `[0, 1]`.
    pub fn constraint_stressed(p: f64) -> ChannelModel {
        ChannelModel::uniform(ErrorModel::nanopore(p))
            .with_constraint_stress(ConstraintStress::default())
    }

    /// A bursty preset at total rate `p`: uniform thirds base rates plus
    /// contiguous indel bursts (10% of reads, mean length 4) — the
    /// polymerase-slippage / nanopore-stall regime.
    ///
    /// # Panics
    ///
    /// Panics when `p` is not in `[0, 1]`.
    pub fn bursty(p: f64) -> ChannelModel {
        ChannelModel::uniform(ErrorModel::uniform(p))
            .with_burst(0.10, 4.0)
            .expect("static burst parameters are valid")
    }

    /// Replaces the position profile.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidProfile`] when the profile fails
    /// [`PositionProfile::validate`].
    pub fn with_profile(mut self, profile: PositionProfile) -> Result<ChannelModel, ChannelError> {
        profile.validate()?;
        self.profile = profile;
        Ok(self)
    }

    /// Sets the per-strand dropout probability.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidDropout`] when `dropout` is not in
    /// `[0, 1)` — a dropout of 1 would lose every molecule, which is a
    /// configuration mistake, not a channel.
    pub fn with_dropout(mut self, dropout: f64) -> Result<ChannelModel, ChannelError> {
        if !dropout.is_finite() || !(0.0..1.0).contains(&dropout) {
            return Err(ChannelError::InvalidDropout(dropout));
        }
        self.dropout = dropout;
        Ok(self)
    }

    /// Enables PCR amplification bias with the given Gamma shape
    /// (see [`PcrBias::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidPcr`] for non-positive or
    /// non-finite shapes.
    pub fn with_pcr_bias(mut self, shape: f64) -> Result<ChannelModel, ChannelError> {
        self.pcr = Some(PcrBias::new(shape)?);
        Ok(self)
    }

    /// Enables burst indel events (see [`BurstModel::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidBurst`] for out-of-range
    /// parameters.
    pub fn with_burst(mut self, rate: f64, mean_len: f64) -> Result<ChannelModel, ChannelError> {
        self.burst = Some(BurstModel::new(rate, mean_len)?);
        Ok(self)
    }

    /// Enables constraint-correlated error stress (already validated by
    /// [`ConstraintStress::new`]).
    pub fn with_constraint_stress(mut self, stress: ConstraintStress) -> ChannelModel {
        self.stress = Some(stress);
        self
    }

    /// The base per-base rates.
    pub fn base(&self) -> &ErrorModel {
        &self.base
    }

    /// The position profile.
    pub fn profile(&self) -> &PositionProfile {
        &self.profile
    }

    /// Per-strand dropout probability.
    pub fn dropout(&self) -> f64 {
        self.dropout
    }

    /// The PCR bias, when enabled.
    pub fn pcr(&self) -> Option<&PcrBias> {
        self.pcr.as_ref()
    }

    /// The burst model, when enabled.
    pub fn burst(&self) -> Option<&BurstModel> {
        self.burst.as_ref()
    }

    /// The constraint-correlated stress term, when enabled.
    pub fn constraint_stress(&self) -> Option<&ConstraintStress> {
        self.stress.as_ref()
    }

    /// Whether every extension is disabled — the flat channel whose pools
    /// are byte-identical to the pre-profile simulator.
    pub fn is_uniform(&self) -> bool {
        self.profile.is_uniform()
            && self.dropout == 0.0
            && self.pcr.is_none()
            && self.burst.is_none()
            && self.stress.is_none()
    }

    /// The effective `(sub, ins, del)` rates at `pos` of a strand of
    /// `len` bases: base rates scaled by the profile multiplier, then
    /// normalized so their total never exceeds 1 (each rate therefore
    /// stays in `[0, 1]`).
    pub fn rates_at(&self, pos: usize, len: usize) -> (f64, f64, f64) {
        let mult = self.profile.multiplier(pos, len);
        let mut ps = self.base.sub_rate() * mult;
        let mut pi = self.base.ins_rate() * mult;
        let mut pd = self.base.del_rate() * mult;
        let total = ps + pi + pd;
        if total > 1.0 {
            let scale = 1.0 / total;
            ps *= scale;
            pi *= scale;
            pd *= scale;
        }
        (ps, pi, pd)
    }

    /// Produces one noisy read of `strand` under this model (positional
    /// rates, content-dependent stress, and bursts; dropout and PCR bias
    /// act at the pool level — see
    /// [`ReadPool::generate`](crate::ReadPool::generate)).
    pub fn transmit<R: Rng + ?Sized>(&self, strand: &DnaString, rng: &mut R) -> DnaString {
        let burst = match &self.burst {
            Some(b) => b.plan(strand.len(), rng),
            None => None,
        };
        let len = strand.len();
        if let Some(stress) = &self.stress {
            // Content-dependent multipliers are precomputed per strand
            // (two linear passes), then composed onto the positional
            // rates with the same ≤ 1 clamp.
            let mult = stress.multipliers(strand);
            return transmit_core(
                strand,
                |pos| {
                    let (ps, pi, pd) = self.rates_at(pos, len);
                    clamp_rates(ps * mult[pos], pi * mult[pos], pd * mult[pos])
                },
                burst,
                rng,
            );
        }
        if self.profile.is_uniform() {
            // Hoist the (position-independent) rates out of the per-base
            // loop, as the plain channel always has.
            let rates = self.rates_at(0, len);
            transmit_core(strand, |_| rates, burst, rng)
        } else {
            transmit_core(strand, |pos| self.rates_at(pos, len), burst, rng)
        }
    }

    /// Produces `n` independent noisy reads of `strand`.
    pub fn transmit_many<R: Rng + ?Sized>(
        &self,
        strand: &DnaString,
        n: usize,
        rng: &mut R,
    ) -> Vec<DnaString> {
        (0..n).map(|_| self.transmit(strand, rng)).collect()
    }
}

/// The IDS transmission loop: at each surviving source position exactly
/// one of deletion / insertion / substitution / copy happens, with the
/// rates supplied per position by `rates(pos) -> (sub, ins, del)`. With a
/// constant rate closure and no burst, the draw sequence is the flat
/// channel's.
fn transmit_core<R: Rng + ?Sized>(
    strand: &DnaString,
    mut rates: impl FnMut(usize) -> (f64, f64, f64),
    burst: Option<BurstPlan>,
    rng: &mut R,
) -> DnaString {
    let mut out = DnaString::with_capacity(strand.len() + 4);
    for (pos, &b) in strand.iter().enumerate() {
        match burst {
            Some(BurstPlan::Insert { start, len }) if pos == start => {
                for _ in 0..len {
                    out.push(Base::from_bits(rng.gen()));
                }
            }
            Some(BurstPlan::Delete { start, len }) if pos >= start && pos - start < len => {
                continue;
            }
            _ => {}
        }
        let (ps, pi, pd) = rates(pos);
        let u: f64 = rng.gen();
        if u < pd {
            // deletion: drop the base
        } else if u < pd + pi {
            // insertion before this base, base itself is kept
            out.push(Base::from_bits(rng.gen()));
            out.push(b);
        } else if u < pd + pi + ps {
            // substitution by one of the three other bases
            let shift = rng.gen_range(1u8..4);
            out.push(Base::from_bits(b.to_bits().wrapping_add(shift)));
        } else {
            out.push(b);
        }
    }
    out
}

/// Normalizes an event-rate triple so its total never exceeds 1.
fn clamp_rates(mut ps: f64, mut pi: f64, mut pd: f64) -> (f64, f64, f64) {
    let total = ps + pi + pd;
    if total > 1.0 {
        let scale = 1.0 / total;
        ps *= scale;
        pi *= scale;
        pd *= scale;
    }
    (ps, pi, pd)
}

impl From<ErrorModel> for ChannelModel {
    fn from(base: ErrorModel) -> ChannelModel {
        ChannelModel::uniform(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_align::edit_distance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noiseless_channel_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = DnaString::random(300, &mut rng);
        let ch = ChannelModel::uniform(ErrorModel::noiseless());
        assert_eq!(ch.transmit(&s, &mut rng), s);
    }

    #[test]
    fn substitutions_never_keep_the_original_base() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = DnaString::random(2000, &mut rng);
        let ch = ChannelModel::uniform(ErrorModel::substitutions_only(1.0));
        let read = ch.transmit(&s, &mut rng);
        assert_eq!(read.len(), s.len());
        for (a, b) in s.iter().zip(read.iter()) {
            assert_ne!(a, b);
        }
    }

    #[test]
    fn expected_length_shift_matches_rates() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = DnaString::random(1000, &mut rng);
        // Insertion-heavy channel grows reads; deletion-heavy shrinks them.
        let grow = ChannelModel::uniform(ErrorModel::new(0.0, 0.2, 0.0).unwrap());
        let shrink = ChannelModel::uniform(ErrorModel::new(0.0, 0.0, 0.2).unwrap());
        let mean = |ch: &ChannelModel, rng: &mut StdRng| -> f64 {
            let n = 200;
            (0..n).map(|_| ch.transmit(&s, rng).len()).sum::<usize>() as f64 / n as f64
        };
        let g = mean(&grow, &mut rng);
        let k = mean(&shrink, &mut rng);
        assert!((g - 1200.0).abs() < 30.0, "grow mean {g}");
        assert!((k - 800.0).abs() < 30.0, "shrink mean {k}");
    }

    #[test]
    fn measured_error_rate_tracks_configuration() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = DnaString::random(500, &mut rng);
        let ch = ChannelModel::uniform(ErrorModel::uniform(0.06));
        let mut total_ed = 0usize;
        let trials = 100;
        for _ in 0..trials {
            let read = ch.transmit(&s, &mut rng);
            total_ed += edit_distance(s.as_slice(), read.as_slice());
        }
        let per_base = total_ed as f64 / (trials as f64 * s.len() as f64);
        // Edit distance slightly undercounts (adjacent errors can cancel),
        // so allow a generous band around 6%.
        assert!(
            (0.04..=0.07).contains(&per_base),
            "measured per-base error {per_base}"
        );
    }

    #[test]
    fn transmit_many_produces_independent_reads() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = DnaString::random(200, &mut rng);
        let ch = ChannelModel::uniform(ErrorModel::uniform(0.10));
        let reads = ch.transmit_many(&s, 8, &mut rng);
        assert_eq!(reads.len(), 8);
        // With 10% error on 200 bases, collisions are essentially impossible.
        for i in 0..reads.len() {
            for j in i + 1..reads.len() {
                assert_ne!(reads[i], reads[j], "reads {i} and {j} identical");
            }
        }
    }

    #[test]
    fn uniform_profile_multiplier_is_exactly_one() {
        let p = PositionProfile::Uniform;
        for (pos, len) in [(0, 1), (5, 10), (99, 100)] {
            assert_eq!(p.multiplier(pos, len), 1.0);
        }
    }

    #[test]
    fn linear_profile_interpolates_endpoints() {
        let p = PositionProfile::linear(0.4, 2.0).unwrap();
        assert_eq!(p.multiplier(0, 11), 0.4);
        assert_eq!(p.multiplier(10, 11), 2.0);
        let mid = p.multiplier(5, 11);
        assert!((mid - 1.2).abs() < 1e-12, "mid {mid}");
        // Degenerate 1-base strand takes the start multiplier.
        assert_eq!(p.multiplier(0, 1), 0.4);
    }

    #[test]
    fn table_profile_extends_its_last_entry() {
        let p = PositionProfile::table(vec![2.0, 0.5]).unwrap();
        assert_eq!(p.multiplier(0, 10), 2.0);
        assert_eq!(p.multiplier(1, 10), 0.5);
        assert_eq!(p.multiplier(9, 10), 0.5);
    }

    #[test]
    fn invalid_profiles_are_rejected() {
        assert!(PositionProfile::linear(-0.1, 1.0).is_err());
        assert!(PositionProfile::linear(1.0, f64::NAN).is_err());
        assert!(PositionProfile::table(vec![]).is_err());
        assert!(PositionProfile::table(vec![1.0, -2.0]).is_err());
        assert!(PositionProfile::table(vec![1.0, f64::INFINITY]).is_err());
    }

    #[test]
    fn rates_are_scaled_and_clamped() {
        let m = ChannelModel::uniform(ErrorModel::uniform(0.30))
            .with_profile(PositionProfile::linear(0.0, 10.0).unwrap())
            .unwrap();
        let (s0, i0, d0) = m.rates_at(0, 101);
        assert_eq!((s0, i0, d0), (0.0, 0.0, 0.0));
        let (s, i, d) = m.rates_at(100, 101);
        let total = s + i + d;
        assert!(total <= 1.0 + 1e-12, "clamped total {total}");
        assert!(
            (s - i).abs() < 1e-12 && (i - d).abs() < 1e-12,
            "even split kept"
        );
    }

    #[test]
    fn invalid_knobs_are_rejected() {
        let base = || ChannelModel::uniform(ErrorModel::uniform(0.03));
        assert!(base().with_dropout(1.0).is_err());
        assert!(base().with_dropout(-0.1).is_err());
        assert!(base().with_dropout(f64::NAN).is_err());
        assert!(base().with_pcr_bias(0.0).is_err());
        assert!(base().with_pcr_bias(-1.0).is_err());
        assert!(base().with_burst(1.5, 4.0).is_err());
        assert!(base().with_burst(0.1, 0.5).is_err());
        assert!(base().with_dropout(0.999).is_ok());
    }

    #[test]
    fn pcr_bias_multipliers_have_unit_mean() {
        let bias = PcrBias::new(2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| bias.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean multiplier {mean}");
    }

    #[test]
    fn bursty_transmissions_shift_read_lengths() {
        let mut rng = StdRng::seed_from_u64(10);
        let strand = DnaString::random(200, &mut rng);
        let model = ChannelModel::uniform(ErrorModel::noiseless())
            .with_burst(1.0, 8.0)
            .unwrap();
        let mut shifted = 0;
        for _ in 0..50 {
            let read = model.transmit(&strand, &mut rng);
            if read.len() != strand.len() {
                shifted += 1;
            }
        }
        // Every read gets a burst; nearly all should change length.
        assert!(shifted > 40, "only {shifted}/50 reads changed length");
    }

    #[test]
    fn presets_compose_the_documented_knobs() {
        assert!(!ChannelModel::nanopore_decay(0.08).profile().is_uniform());
        assert!(ChannelModel::pcr_skewed(0.04).pcr().is_some());
        assert_eq!(ChannelModel::dropout_prone(0.03, 0.05).dropout(), 0.05);
        assert!(ChannelModel::bursty(0.03).burst().is_some());
        assert!(ChannelModel::uniform(ErrorModel::uniform(0.05)).is_uniform());
        let stressed = ChannelModel::constraint_stressed(0.06);
        assert!(stressed.constraint_stress().is_some());
        assert!(!stressed.is_uniform());
    }

    #[test]
    fn stress_multipliers_punish_runs_and_gc_extremes() {
        let stress = ConstraintStress::new(3, 1.0, 16, 5.0).unwrap();
        // A compliant strand sees multiplier 1.0 everywhere.
        let compliant: DnaString = "ACGTACGTACGTACGT".parse().unwrap();
        assert!(stress
            .multipliers(&compliant)
            .iter()
            .all(|&m| (m - 1.0).abs() < 1e-12));
        // A run of 6 (excess 3) triples the rate on the run's bases only
        // — up to the GC component of its window.
        let runny: DnaString = "ACGTGGGGGGACGTACGT".parse().unwrap();
        let m = stress.multipliers(&runny);
        assert!(m[4..10].iter().all(|&x| x >= 4.0), "{m:?}");
        // GC-extreme content (all A/T) attracts the GC penalty even with
        // no long runs.
        let at_only: DnaString = "ATATATATATATATAT".parse().unwrap();
        assert!(stress.multipliers(&at_only).iter().all(|&x| x > 1.0));
    }

    #[test]
    fn stress_on_compliant_strands_keeps_noise_streams_identical() {
        // The stress term must not perturb RNG draws for strands it does
        // not penalize: same seed, same reads.
        let strand: DnaString = "ACGTCAGTCGATCGATCAGTCATG".parse().unwrap();
        let plain = ChannelModel::uniform(ErrorModel::uniform(0.08));
        let stressed = plain
            .clone()
            .with_constraint_stress(ConstraintStress::new(3, 1.0, 16, 5.0).unwrap());
        for seed in 0..20 {
            let a = plain.transmit(&strand, &mut StdRng::seed_from_u64(seed));
            let b = stressed.transmit(&strand, &mut StdRng::seed_from_u64(seed));
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn invalid_stress_parameters_are_rejected() {
        assert!(ConstraintStress::new(0, 1.0, 16, 5.0).is_err());
        assert!(ConstraintStress::new(3, -1.0, 16, 5.0).is_err());
        assert!(ConstraintStress::new(3, 1.0, 0, 5.0).is_err());
        assert!(ConstraintStress::new(3, 1.0, 16, f64::NAN).is_err());
        assert!(ConstraintStress::new(3, 1.0, 16, 5.0)
            .unwrap()
            .with_gc_band(0.7, 0.3)
            .is_err());
        assert!(ConstraintStress::new(3, 1.0, 16, 5.0)
            .unwrap()
            .with_gc_band(0.3, 0.7)
            .is_ok());
    }
}
