//! Unequal-protection planning: [`ProtectionPlan`] (per-codeword
//! Reed–Solomon rates under a total-density budget) and the
//! skew-profiled [`ProtectionPlanner`] that derives one.
//!
//! The paper keeps every codeword at the same rate and moves *data*
//! around the skew (Gini, DnaMapper). The complementary lever —
//! analyzed in the unequal/MDS-protection literature (Sima et al.;
//! Kas Hanna) — moves *redundancy*: rows that err more get more parity,
//! rows that err less get less, with the total parity-cell count never
//! exceeding the uniform budget `rows × parity_cols`, so the synthesized
//! molecule count (the density) is unchanged.
//!
//! A non-uniform plan keeps each row-codeword's data cells where the
//! layout put them and re-places parity across the parity region along a
//! staggered walk, so one codeword's parity spreads over rows *and*
//! columns. A lost molecule can then cost a hot codeword more than one
//! erasure — the price of protection it chose to buy; the planner's
//! erasure-rate knob approximates that trade (its model draws erasures
//! independently per symbol, so correlated same-column losses are
//! slightly underweighted).
//!
//! # Examples
//!
//! ```
//! use dna_storage::{CodecParams, ProtectionPlan};
//!
//! # fn main() -> Result<(), dna_storage::StorageError> {
//! // Three reliability classes over six row-codewords, same total
//! // parity as uniform-4: 2·6 + 4·2 + 2·2 = budget 24… and validated.
//! let plan = ProtectionPlan::from_parities(vec![2, 2, 4, 6, 6, 4])?;
//! let params = CodecParams::new(dna_gf::Field::gf16(), 6, 8, 4, 4)?;
//! plan.validate_for(&params)?;
//! assert_eq!(plan.total_parity(), 24);
//! assert!(!plan.is_uniform());
//! let classes = plan.classes();
//! assert_eq!(classes.len(), 3);
//! assert_eq!(classes[0].parity, 6); // strongest class first
//! assert_eq!(classes[0].codewords, vec![3, 4]);
//! # Ok(())
//! # }
//! ```

use crate::layout::Layout;
use crate::params::CodecParams;
use crate::skew::{binom_cdf, SkewProfile};
use crate::StorageError;

/// Per-codeword parity lengths: codeword `k` runs as a shortened
/// RS(`data_cols + parity[k]`, `data_cols`) code. A plan with every
/// entry equal to the geometry's `parity_cols` is the **uniform** plan —
/// the exact legacy pipeline, byte for byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtectionPlan {
    parity: Vec<usize>,
}

/// One reliability class of a plan: the codewords sharing a parity
/// length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtectionClass {
    /// Parity symbols per codeword in this class.
    pub parity: usize,
    /// The codeword indices, ascending.
    pub codewords: Vec<usize>,
}

/// A non-fatal condition the planner detected and worked around.
/// Surfaced by [`ProtectionPlanner::plan_with_warnings`]; the plain
/// [`ProtectionPlanner::plan`] applies the same fallback silently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlannerWarning {
    /// The geometry is field-saturated: `group_order − data_cols ≤
    /// parity_cols`, so every codeword already sits at the field-length
    /// cap and skew-aware planning has zero headroom to move parity
    /// between rows. The planner fell back to the uniform plan.
    SaturatedGeometry {
        /// Nonzero symbols available to a codeword in this field.
        group_order: usize,
        /// Data symbols per codeword.
        data_cols: usize,
        /// Uniform parity symbols per codeword.
        parity_cols: usize,
    },
}

impl std::fmt::Display for PlannerWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlannerWarning::SaturatedGeometry {
                group_order,
                data_cols,
                parity_cols,
            } => write!(
                f,
                "geometry is field-saturated ({data_cols} data + {parity_cols} parity fills \
                 the {group_order}-symbol field): no headroom to skew parity, falling back \
                 to the uniform plan; lower --parity to open headroom"
            ),
        }
    }
}

impl ProtectionPlan {
    /// The uniform plan: every codeword at `parity` symbols.
    pub fn uniform(codewords: usize, parity: usize) -> ProtectionPlan {
        ProtectionPlan {
            parity: vec![parity; codewords],
        }
    }

    /// A plan from explicit per-codeword parity lengths.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::InvalidParams`] when the vector is empty.
    /// Geometry-dependent constraints (budget, field length) are checked
    /// by [`ProtectionPlan::validate_for`].
    pub fn from_parities(parity: Vec<usize>) -> Result<ProtectionPlan, StorageError> {
        if parity.is_empty() {
            return Err(StorageError::InvalidParams(
                "protection plan needs at least one codeword".into(),
            ));
        }
        Ok(ProtectionPlan { parity })
    }

    /// Checks the plan against a concrete geometry: one entry per row
    /// codeword, every codeword within the field's length limit, and the
    /// total within the density budget `rows × parity_cols`.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::InvalidParams`] describing the violation.
    pub fn validate_for(&self, params: &CodecParams) -> Result<(), StorageError> {
        if self.parity.len() != params.rows() {
            return Err(StorageError::InvalidParams(format!(
                "plan covers {} codewords but the unit has {} rows",
                self.parity.len(),
                params.rows()
            )));
        }
        let cap = params.field().group_order() - params.data_cols();
        if let Some((k, &e)) = self.parity.iter().enumerate().find(|(_, &e)| e > cap) {
            return Err(StorageError::InvalidParams(format!(
                "codeword {k} wants {e} parity symbols; the field caps RS({}, {}) at {cap}",
                params.data_cols() + e,
                params.data_cols()
            )));
        }
        let budget = params.rows() * params.parity_cols();
        if self.total_parity() > budget {
            return Err(StorageError::InvalidParams(format!(
                "plan spends {} parity symbols, exceeding the density budget {budget}",
                self.total_parity()
            )));
        }
        Ok(())
    }

    /// The per-codeword parity lengths.
    pub fn parities(&self) -> &[usize] {
        &self.parity
    }

    /// Codeword `k`'s parity length.
    ///
    /// # Panics
    ///
    /// Panics when `k` is out of range.
    pub fn parity_of(&self, k: usize) -> usize {
        self.parity[k]
    }

    /// Number of codewords covered.
    pub fn codewords(&self) -> usize {
        self.parity.len()
    }

    /// Total parity symbols spent.
    pub fn total_parity(&self) -> usize {
        self.parity.iter().sum()
    }

    /// The largest per-codeword parity length.
    pub fn max_parity(&self) -> usize {
        self.parity.iter().copied().max().unwrap_or(0)
    }

    /// Whether every codeword carries the same parity length.
    pub fn is_uniform(&self) -> bool {
        self.parity.windows(2).all(|w| w[0] == w[1])
    }

    /// Whether this is the uniform plan at exactly `parity` symbols.
    pub fn is_uniform_at(&self, parity: usize) -> bool {
        self.parity.iter().all(|&e| e == parity)
    }

    /// The distinct parity lengths in use, ascending (zero excluded —
    /// zero-parity codewords are unprotected, not a code).
    pub fn distinct_rates(&self) -> Vec<usize> {
        let mut rates: Vec<usize> = self.parity.iter().copied().filter(|&e| e > 0).collect();
        rates.sort_unstable();
        rates.dedup();
        rates
    }

    /// The reliability classes: codewords grouped by parity length,
    /// strongest (most parity) first.
    pub fn classes(&self) -> Vec<ProtectionClass> {
        let mut rates: Vec<usize> = self.parity.to_vec();
        rates.sort_unstable();
        rates.dedup();
        rates
            .into_iter()
            .rev()
            .map(|parity| ProtectionClass {
                parity,
                codewords: (0..self.parity.len())
                    .filter(|&k| self.parity[k] == parity)
                    .collect(),
            })
            .collect()
    }

    /// A one-line human summary, e.g. `3 classes: 2×47, 10×32, 18×24`.
    pub fn summary(&self) -> String {
        let classes = self.classes();
        let parts: Vec<String> = classes
            .iter()
            .map(|c| format!("{}×{}", c.codewords.len(), c.parity))
            .collect();
        format!(
            "{} class{}: {}",
            classes.len(),
            if classes.len() == 1 { "" } else { "es" },
            parts.join(", ")
        )
    }
}

/// The positions of every codeword under a (possibly non-uniform) plan:
/// codeword `k` keeps the layout's data cells and takes `plan[k]`
/// consecutive slots of a staggered walk over the parity region, so its
/// parity spreads across rows and columns. The uniform-at-`parity_cols`
/// plan must *not* take this path — the legacy per-layout parity
/// placement is the byte-compatibility contract.
pub(crate) fn planned_positions(
    layout: &Layout,
    rows: usize,
    data_cols: usize,
    parity_cols: usize,
    plan: &ProtectionPlan,
) -> Vec<Vec<(usize, usize)>> {
    // Slot j of the walk: row cycles fastest, the column is staggered by
    // the row so consecutive slots advance both coordinates — a run of
    // e_k slots touches each parity column at most ⌈e_k/parity_cols⌉+1
    // times and each row at most ⌈e_k/rows⌉ times.
    let slot = |j: usize| {
        let r = j % rows;
        (r, data_cols + (j / rows + r) % parity_cols)
    };
    let mut positions = layout.codeword_positions(rows, data_cols, parity_cols);
    let mut next_slot = 0usize;
    for (k, pos) in positions.iter_mut().enumerate() {
        pos.truncate(data_cols);
        pos.extend((0..plan.parity_of(k)).map(|i| slot(next_slot + i)));
        next_slot += plan.parity_of(k);
    }
    positions
}

/// Derives a [`ProtectionPlan`] from a [`SkewProfile`]: starting every
/// codeword at a parity floor, the planner greedily grants one parity
/// symbol at a time to the codeword whose predicted decode probability
/// gains the most, until the density budget `rows × parity_cols` is
/// spent (or no grant helps). Deterministic: ties break toward the
/// lowest codeword index, and nothing is randomized.
///
/// The prediction models codeword `k` as `n = data_cols + e` symbols,
/// each independently wrong with the profile's mean rate over the
/// codeword's data rows, plus whole-column erasures at
/// [`erasure_rate`](Self::erasure_rate); the codeword decodes when
/// `2·errors + erasures ≤ e`.
///
/// # Examples
///
/// ```
/// use dna_storage::{CodecParams, Layout, ProtectionPlanner, SkewProfile};
///
/// # fn main() -> Result<(), dna_storage::StorageError> {
/// // 6 rows with a hot tail; budget = 6 × 4 parity cells.
/// let profile = SkewProfile::from_rates(vec![0.01, 0.01, 0.01, 0.02, 0.06, 0.12])?;
/// let params = CodecParams::new(dna_gf::Field::gf16(), 6, 8, 4, 4)?;
/// let plan = ProtectionPlanner::new(profile).plan(&params, &Layout::Baseline)?;
/// assert!(plan.total_parity() <= 24, "never exceeds the budget");
/// assert!(plan.parity_of(5) > plan.parity_of(0), "hot rows get more parity");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProtectionPlanner {
    profile: SkewProfile,
    erasure_rate: f64,
    min_parity: usize,
}

impl ProtectionPlanner {
    /// A planner over `profile` with no erasure assumption and a
    /// one-symbol parity floor per codeword.
    pub fn new(profile: SkewProfile) -> ProtectionPlanner {
        ProtectionPlanner {
            profile,
            erasure_rate: 0.0,
            min_parity: 1,
        }
    }

    /// Sets the assumed whole-column erasure probability (lost
    /// molecules), folded into the predicted decode probability.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::InvalidParams`] when `rate` is not a
    /// probability below 1.
    pub fn erasure_rate(mut self, rate: f64) -> Result<ProtectionPlanner, StorageError> {
        if !rate.is_finite() || !(0.0..1.0).contains(&rate) {
            return Err(StorageError::InvalidParams(format!(
                "erasure rate {rate} must lie in [0, 1)"
            )));
        }
        self.erasure_rate = rate;
        Ok(self)
    }

    /// Sets the parity floor every codeword keeps regardless of how
    /// quiet its rows look (default 1).
    pub fn min_parity(mut self, min_parity: usize) -> ProtectionPlanner {
        self.min_parity = min_parity;
        self
    }

    /// The profile driving the plan.
    pub fn profile(&self) -> &SkewProfile {
        &self.profile
    }

    /// Plans protection for `params` under `layout`.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::InvalidParams`] when the profile's row
    /// count disagrees with the geometry, the layout does not support
    /// unequal protection, or the parity floor alone exceeds the budget.
    pub fn plan(
        &self,
        params: &CodecParams,
        layout: &Layout,
    ) -> Result<ProtectionPlan, StorageError> {
        self.plan_with_warnings(params, layout)
            .map(|(plan, _)| plan)
    }

    /// [`ProtectionPlanner::plan`], also returning the non-fatal
    /// conditions the planner worked around. Today the only one is
    /// [`PlannerWarning::SaturatedGeometry`]: when
    /// `group_order − data_cols ≤ parity_cols` every codeword is pinned
    /// at the field cap, so the planner skips the (pointless) greedy
    /// search and returns the uniform plan with a warning instead of
    /// silently converging to it.
    ///
    /// # Errors
    ///
    /// See [`ProtectionPlanner::plan`].
    pub fn plan_with_warnings(
        &self,
        params: &CodecParams,
        layout: &Layout,
    ) -> Result<(ProtectionPlan, Vec<PlannerWarning>), StorageError> {
        let rows = params.rows();
        if self.profile.rows() != rows {
            return Err(StorageError::InvalidParams(format!(
                "skew profile covers {} rows but the unit has {rows}",
                self.profile.rows()
            )));
        }
        if params.parity_cols() == 0 {
            return Ok((ProtectionPlan::uniform(rows, 0), Vec::new()));
        }
        let m = params.data_cols();
        let cap = params.field().group_order() - m;
        if cap <= params.parity_cols() {
            // Field-saturated: every codeword is already at (or beyond)
            // the cap, so there is nothing to plan. Fall back to uniform
            // — checked *before* the layout-support gate because uniform
            // is valid on every layout.
            return Ok((
                ProtectionPlan::uniform(rows, cap.min(params.parity_cols())),
                vec![PlannerWarning::SaturatedGeometry {
                    group_order: params.field().group_order(),
                    data_cols: m,
                    parity_cols: params.parity_cols(),
                }],
            ));
        }
        if !layout.supports_unequal_protection() {
            return Err(StorageError::InvalidParams(format!(
                "layout {:?} does not support unequal protection plans",
                layout.name()
            )));
        }
        let budget = rows * params.parity_cols();
        let floor = self.min_parity.min(cap);
        if rows * floor > budget {
            return Err(StorageError::InvalidParams(format!(
                "parity floor {floor} × {rows} codewords exceeds the budget {budget}"
            )));
        }

        // Predicted per-symbol error rate of codeword k: the profile's
        // mean over the rows its data cells occupy.
        let p_k: Vec<f64> = layout
            .codeword_positions(rows, m, params.parity_cols())
            .iter()
            .map(|pos| {
                pos[..m]
                    .iter()
                    .map(|&(r, _)| self.profile.rate(r))
                    .sum::<f64>()
                    / m as f64
            })
            .collect();

        let log_success = |k: usize, e: usize| {
            success_probability(m, e, p_k[k], self.erasure_rate)
                .max(f64::MIN_POSITIVE)
                .ln()
        };
        // Marginal per-symbol gain of growing codeword k from `e`,
        // looking one *pair* ahead: a lone symbol added at even parity
        // buys no error capacity (⌊e/2⌋ is unchanged) while lengthening
        // the codeword, so a single-step greedy would stall there — the
        // pair view prices the two-symbol step at its average value.
        let step_gain = |k: usize, e: usize, remaining: usize| -> (usize, f64) {
            let base = log_success(k, e);
            let mut best = (0usize, f64::NEG_INFINITY);
            if e < cap && remaining >= 1 {
                best = (1, log_success(k, e + 1) - base);
            }
            if e + 2 <= cap && remaining >= 2 {
                let paired = (log_success(k, e + 2) - base) / 2.0;
                if paired > best.1 {
                    best = (2, paired);
                }
            }
            best
        };

        let mut parity = vec![floor; rows];
        let mut remaining = budget - rows * floor;
        let mut gains: Vec<(usize, f64)> =
            (0..rows).map(|k| step_gain(k, floor, remaining)).collect();
        while remaining > 0 {
            let (best, (step, gain)) = gains
                .iter()
                .enumerate()
                .max_by(|&(ak, a), &(bk, b)| a.1.total_cmp(&b.1).then(bk.cmp(&ak)))
                .map(|(k, &g)| (k, g))
                .expect("at least one codeword");
            if step == 0 || gain <= 1e-12 {
                break; // every codeword is already (numerically) safe
            }
            parity[best] += step;
            remaining -= step;
            // The budget shrank: refresh the winner, and demote any
            // cached pair-step that no longer fits.
            gains[best] = step_gain(best, parity[best], remaining);
            if remaining < 2 {
                for (k, slot) in gains.iter_mut().enumerate() {
                    if slot.0 == 2 {
                        *slot = step_gain(k, parity[k], remaining);
                    }
                }
            }
        }
        // Gains can vanish numerically long before the budget does
        // (success ≈ 1 everywhere). Unspent budget is free insurance at
        // fixed density, so top codewords up round-robin — hottest rows
        // first — until the budget or every field cap is reached.
        // (Saturated geometries never reach this point: they short-
        // circuit to the uniform plan with a warning above.)
        let mut order: Vec<usize> = (0..rows).collect();
        order.sort_by(|&a, &b| p_k[b].total_cmp(&p_k[a]).then(a.cmp(&b)));
        while remaining > 0 {
            let mut progressed = false;
            for &k in &order {
                if remaining == 0 {
                    break;
                }
                if parity[k] < cap {
                    parity[k] += 1;
                    remaining -= 1;
                    progressed = true;
                }
            }
            if !progressed {
                break; // every codeword is at the field cap
            }
        }
        Ok((ProtectionPlan { parity }, Vec::new()))
    }
}

/// `P(2·errors + erasures ≤ e)` for a codeword of `data + e` symbols,
/// each wrong with probability `p`, in a column erased with probability
/// `q`.
fn success_probability(data: usize, e: usize, p: f64, q: f64) -> f64 {
    let n = data + e;
    if q <= 0.0 {
        return binom_cdf(n, p, e / 2);
    }
    // Sum over erasure counts; the pmf is iterated like the CDF helper.
    let mut pmf = (1.0 - q).powi(n as i32);
    let mut total = 0.0;
    for rho in 0..=e.min(n) {
        total += pmf * binom_cdf(n - rho, p, (e - rho) / 2);
        pmf *= (n - rho) as f64 / (rho + 1) as f64 * (q / (1.0 - q));
    }
    total.min(1.0)
}

/// What the builder accepts as a protection policy: the implicit uniform
/// plan (today's behavior), an explicit [`ProtectionPlan`], or a
/// [`ProtectionPlanner`] run against the resolved geometry and layout at
/// [`build`](crate::PipelineBuilder::build) time.
#[derive(Debug, Clone, Default)]
pub enum Protection {
    /// Every codeword at the geometry's `parity_cols` — the legacy path.
    #[default]
    Uniform,
    /// An explicit plan, validated at build.
    Plan(ProtectionPlan),
    /// A planner, run at build against the resolved params and layout.
    Auto(ProtectionPlanner),
}

impl From<ProtectionPlan> for Protection {
    fn from(plan: ProtectionPlan) -> Protection {
        Protection::Plan(plan)
    }
}

impl From<ProtectionPlanner> for Protection {
    fn from(planner: ProtectionPlanner) -> Protection {
        Protection::Auto(planner)
    }
}

impl From<SkewProfile> for Protection {
    fn from(profile: SkewProfile) -> Protection {
        Protection::Auto(ProtectionPlanner::new(profile))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use dna_gf::Field;

    fn headroom_params() -> CodecParams {
        // GF(16), 6 rows, 8 + 4 columns: per-codeword cap 15 − 8 = 7.
        CodecParams::new(Field::gf16(), 6, 8, 4, 4).unwrap()
    }

    #[test]
    fn plan_validation_catches_shape_budget_and_field_violations() {
        let params = headroom_params();
        assert!(ProtectionPlan::from_parities(vec![]).is_err());
        // Wrong codeword count.
        assert!(ProtectionPlan::uniform(5, 4).validate_for(&params).is_err());
        // Field cap: 8 parity would need RS(16, 8) over GF(16).
        assert!(ProtectionPlan::from_parities(vec![8, 4, 4, 4, 2, 2])
            .unwrap()
            .validate_for(&params)
            .is_err());
        // Budget: 25 > 6 × 4.
        assert!(ProtectionPlan::from_parities(vec![7, 6, 4, 4, 2, 2])
            .unwrap()
            .validate_for(&params)
            .is_err());
        // Exactly at budget, within cap: fine.
        assert!(ProtectionPlan::from_parities(vec![7, 5, 4, 4, 2, 2])
            .unwrap()
            .validate_for(&params)
            .is_ok());
    }

    #[test]
    fn classes_group_and_summarize() {
        let plan = ProtectionPlan::from_parities(vec![2, 6, 2, 6, 4, 4]).unwrap();
        let classes = plan.classes();
        assert_eq!(classes.len(), 3);
        assert_eq!(classes[0].parity, 6);
        assert_eq!(classes[0].codewords, vec![1, 3]);
        assert_eq!(classes[2].codewords, vec![0, 2]);
        assert_eq!(plan.summary(), "3 classes: 2×6, 2×4, 2×2");
        assert_eq!(plan.distinct_rates(), vec![2, 4, 6]);
        assert!(ProtectionPlan::uniform(4, 3).is_uniform());
        assert!(ProtectionPlan::uniform(4, 3).is_uniform_at(3));
        assert!(!plan.is_uniform());
    }

    #[test]
    fn planner_shifts_parity_toward_hot_rows_within_budget() {
        let params = headroom_params();
        let profile = SkewProfile::from_rates(vec![0.005, 0.005, 0.01, 0.02, 0.08, 0.15]).unwrap();
        let plan = ProtectionPlanner::new(profile)
            .plan(&params, &Layout::Baseline)
            .unwrap();
        assert_eq!(plan.codewords(), 6);
        assert!(plan.total_parity() <= 24);
        assert!(plan.max_parity() <= 7, "field cap respected");
        assert!(plan.parity_of(5) >= plan.parity_of(4));
        assert!(plan.parity_of(5) > plan.parity_of(0));
        plan.validate_for(&params).unwrap();
    }

    #[test]
    fn planner_is_deterministic() {
        let params = headroom_params();
        let profile = SkewProfile::from_rates(vec![0.01, 0.03, 0.02, 0.09, 0.04, 0.11]).unwrap();
        let planner = ProtectionPlanner::new(profile).erasure_rate(0.02).unwrap();
        let a = planner.plan(&params, &Layout::Baseline).unwrap();
        let b = planner.plan(&params, &Layout::Baseline).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn planner_rejects_unsupported_layouts_and_bad_knobs() {
        let params = headroom_params();
        let profile = SkewProfile::uniform(6, 0.02).unwrap();
        let err = ProtectionPlanner::new(profile.clone())
            .plan(
                &params,
                &Layout::Gini {
                    excluded_rows: vec![],
                },
            )
            .unwrap_err();
        assert!(matches!(err, StorageError::InvalidParams(_)), "{err}");
        assert!(err.to_string().contains("unequal protection"), "{err}");

        assert!(ProtectionPlanner::new(profile.clone())
            .erasure_rate(1.0)
            .is_err());
        assert!(ProtectionPlanner::new(profile.clone())
            .erasure_rate(-0.1)
            .is_err());

        // Profile/geometry row mismatch.
        let short = SkewProfile::uniform(5, 0.02).unwrap();
        assert!(ProtectionPlanner::new(short)
            .plan(&params, &Layout::Baseline)
            .is_err());

        // A parity floor that cannot fit the budget.
        assert!(ProtectionPlanner::new(profile)
            .min_parity(5)
            .plan(&params, &Layout::Baseline)
            .is_err());
    }

    #[test]
    fn flat_profile_plans_nearly_uniform() {
        let params = headroom_params();
        let profile = SkewProfile::uniform(6, 0.04).unwrap();
        let plan = ProtectionPlanner::new(profile)
            .plan(&params, &Layout::Baseline)
            .unwrap();
        // With no skew the greedy spread stays within one symbol of even.
        let (lo, hi) = (plan.parities().iter().min(), plan.parities().iter().max());
        assert!(hi.unwrap() - lo.unwrap() <= 1, "{:?}", plan.parities());
    }

    #[test]
    fn saturated_geometry_falls_back_to_uniform_with_a_warning() {
        // The laptop geometry: GF(256), 208 + 47 = 255 fills the field.
        // Every codeword is pinned at the cap, so "auto" planning has
        // zero headroom — the planner must say so, not silently converge.
        let params = CodecParams::laptop().unwrap();
        let profile = SkewProfile::from_rates(
            (0..params.rows())
                .map(|r| 0.005 + 0.002 * r as f64)
                .collect(),
        )
        .unwrap();
        let (plan, warnings) = ProtectionPlanner::new(profile.clone())
            .plan_with_warnings(&params, &Layout::Baseline)
            .unwrap();
        assert!(plan.is_uniform_at(params.parity_cols()), "{plan:?}");
        assert_eq!(
            warnings,
            vec![PlannerWarning::SaturatedGeometry {
                group_order: 255,
                data_cols: 208,
                parity_cols: 47
            }]
        );
        assert!(warnings[0].to_string().contains("field-saturated"));
        // plan() applies the same fallback silently.
        let silent = ProtectionPlanner::new(profile.clone())
            .plan(&params, &Layout::Baseline)
            .unwrap();
        assert_eq!(silent, plan);

        // Opening headroom (--parity 32) re-enables skew planning with
        // no warning: the skewed profile must yield a non-uniform plan.
        let base = CodecParams::laptop().unwrap();
        let roomy = CodecParams::new(
            base.field().clone(),
            base.rows(),
            base.data_cols(),
            32,
            base.index_bits(),
        )
        .unwrap();
        let (plan, warnings) = ProtectionPlanner::new(profile)
            .plan_with_warnings(&roomy, &Layout::Baseline)
            .unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        assert!(!plan.is_uniform(), "{plan:?}");
        plan.validate_for(&roomy).unwrap();
    }

    #[test]
    fn success_probability_is_monotone_in_parity_pairs() {
        // A lone extra parity symbol can *lower* the success probability
        // (it lengthens the codeword without raising ⌊e/2⌋) — that is
        // exactly why the planner looks a pair ahead. Pairs, which always
        // buy one more correctable error, must be monotone.
        for &(p, q) in &[(0.02, 0.0), (0.05, 0.01), (0.1, 0.05)] {
            for parity_mod in 0..2 {
                let mut last = 0.0;
                for half in 0..5 {
                    let e = 2 * half + parity_mod;
                    let s = success_probability(20, e, p, q);
                    assert!(s >= last - 1e-12, "e={e} p={p} q={q}");
                    assert!((0.0..=1.0).contains(&s));
                    last = s;
                }
            }
        }
    }
}
