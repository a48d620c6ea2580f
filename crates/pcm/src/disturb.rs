//! Write-disturbance error model.
//!
//! Resetting a cell generates heat that can lower the resistance of adjacent
//! *idle* cells (cells not being programmed in the same write). A cell already
//! in the minimum-resistance state `S2` is immune; cells in `S1`, `S3` and
//! `S4` are disturbed with the per-state rates of Table II (20 nm node).

use crate::physical::PhysicalLine;
use crate::state::CellState;
use crate::write::changed_cell_indices;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::ops::AddAssign;

/// Per-state write-disturbance error rates (probability that an idle neighbour
/// in the given state is disturbed by one adjacent RESET operation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisturbanceModel {
    rates: [f64; 4],
}

impl DisturbanceModel {
    /// The disturbance rates reported in the paper (Table II):
    /// S1: 12.3 %, S2: 0 %, S3: 27.6 %, S4: 15.2 %.
    pub const PAPER_RATES: [f64; 4] = [0.123, 0.0, 0.276, 0.152];

    /// Creates a disturbance model with the given per-state rates.
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside `[0, 1]`.
    pub fn new(rates: [f64; 4]) -> DisturbanceModel {
        for r in rates {
            assert!((0.0..=1.0).contains(&r), "disturbance rates must be probabilities");
        }
        DisturbanceModel { rates }
    }

    /// The model used by the paper's evaluation.
    pub fn paper_default() -> DisturbanceModel {
        DisturbanceModel::new(Self::PAPER_RATES)
    }

    /// The disturbance probability of an idle cell in `state`.
    #[inline]
    pub fn rate(&self, state: CellState) -> f64 {
        self.rates[state.index()]
    }
}

impl Default for DisturbanceModel {
    fn default() -> DisturbanceModel {
        DisturbanceModel::paper_default()
    }
}

/// The disturbance outcome of one line write.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DisturbanceOutcome {
    /// Number of idle cells disturbed (sampled), split by the class of the
    /// *disturbed* cell.
    pub data_errors: usize,
    /// Disturbed idle cells classified as auxiliary.
    pub aux_errors: usize,
    /// Expected number of disturbed idle cells (sum of probabilities), data cells.
    pub expected_data_errors: f64,
    /// Expected number of disturbed idle cells, auxiliary cells.
    pub expected_aux_errors: f64,
}

impl DisturbanceOutcome {
    /// Total sampled disturbance errors.
    #[inline]
    pub fn total_errors(&self) -> usize {
        self.data_errors + self.aux_errors
    }

    /// Total expected disturbance errors.
    #[inline]
    pub fn expected_total_errors(&self) -> f64 {
        self.expected_data_errors + self.expected_aux_errors
    }
}

impl AddAssign for DisturbanceOutcome {
    fn add_assign(&mut self, rhs: DisturbanceOutcome) {
        self.data_errors += rhs.data_errors;
        self.aux_errors += rhs.aux_errors;
        self.expected_data_errors += rhs.expected_data_errors;
        self.expected_aux_errors += rhs.expected_aux_errors;
    }
}

/// Evaluates write disturbance for one differential write of `new` over `old`.
///
/// Every cell that changes is programmed (and therefore RESET at least once);
/// each of its immediate neighbours (index ± 1 within the line) that is *idle*
/// in this write may be disturbed with the per-state probability of its stored
/// state. An idle cell adjacent to two written cells is exposed twice.
///
/// The function returns both a Monte-Carlo sample (using `rng`) and the exact
/// expected value, so callers can choose either statistic.
///
/// # Panics
///
/// Panics if the two lines have a different number of cells.
pub fn evaluate_disturbance<R: Rng + ?Sized>(
    old: &PhysicalLine,
    new: &PhysicalLine,
    model: &DisturbanceModel,
    rng: &mut R,
) -> DisturbanceOutcome {
    assert_eq!(old.len(), new.len());
    let written = changed_cell_indices(old, new);
    let mut is_written = vec![false; new.len()];
    for &i in &written {
        is_written[i] = true;
    }

    let mut outcome = DisturbanceOutcome::default();
    for &w in &written {
        let neighbours = [w.checked_sub(1), if w + 1 < new.len() { Some(w + 1) } else { None }];
        for n in neighbours.into_iter().flatten() {
            if is_written[n] {
                continue; // a written cell is re-programmed, not idle
            }
            let state = new.state(n); // idle => stored state unchanged by this write
            if !state.is_disturbable() {
                continue;
            }
            let p = model.rate(state);
            let is_aux = new.class(n) == crate::physical::CellClass::Aux;
            if is_aux {
                outcome.expected_aux_errors += p;
            } else {
                outcome.expected_data_errors += p;
            }
            if rng.gen::<f64>() < p {
                if is_aux {
                    outcome.aux_errors += 1;
                } else {
                    outcome.data_errors += 1;
                }
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::CellClass;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The exact expected error count of one write (the sample is ignored).
    fn expected(old: &PhysicalLine, new: &PhysicalLine, model: &DisturbanceModel) -> f64 {
        let mut rng = StdRng::seed_from_u64(0);
        evaluate_disturbance(old, new, model, &mut rng).expected_total_errors()
    }

    #[test]
    fn no_writes_no_disturbance() {
        let model = DisturbanceModel::paper_default();
        let line = PhysicalLine::all_reset(16);
        let mut rng = StdRng::seed_from_u64(1);
        let out = evaluate_disturbance(&line, &line, &model, &mut rng);
        assert_eq!(out.total_errors(), 0);
        assert_eq!(out.expected_total_errors(), 0.0);
    }

    #[test]
    fn s2_neighbours_are_immune() {
        let model = DisturbanceModel::paper_default();
        let mut old = PhysicalLine::all_reset(3);
        old.set_state(0, CellState::S2);
        old.set_state(2, CellState::S2);
        let mut new = old.clone();
        new.set_state(1, CellState::S4); // write the middle cell
        assert_eq!(expected(&old, &new, &model), 0.0);
    }

    #[test]
    fn idle_s3_neighbour_uses_s3_rate() {
        let model = DisturbanceModel::paper_default();
        let mut old = PhysicalLine::all_reset(3);
        old.set_state(0, CellState::S3);
        old.set_state(2, CellState::S1);
        let mut new = old.clone();
        new.set_state(1, CellState::S2);
        assert!((expected(&old, &new, &model) - (0.276 + 0.123)).abs() < 1e-12);
    }

    #[test]
    fn written_neighbours_are_not_idle() {
        let model = DisturbanceModel::paper_default();
        let old = PhysicalLine::all_reset(3);
        let mut new = old.clone();
        new.set_state(0, CellState::S4);
        new.set_state(1, CellState::S4);
        new.set_state(2, CellState::S4);
        // Every cell is written; nothing is idle.
        assert_eq!(expected(&old, &new, &model), 0.0);
    }

    #[test]
    fn sampling_matches_expectation_roughly() {
        let model = DisturbanceModel::paper_default();
        let mut old = PhysicalLine::all_reset(64);
        for i in (0..64).step_by(2) {
            old.set_state(i, CellState::S3);
        }
        let mut new = old.clone();
        for i in (1..64).step_by(2) {
            new.set_state(i, CellState::S2);
        }
        let mut rng = StdRng::seed_from_u64(7);
        let mut total = 0usize;
        let mut expected = 0.0;
        let rounds = 200;
        for _ in 0..rounds {
            let out = evaluate_disturbance(&old, &new, &model, &mut rng);
            total += out.total_errors();
            expected += out.expected_total_errors();
        }
        let mean = total as f64 / rounds as f64;
        let exp = expected / rounds as f64;
        assert!((mean - exp).abs() < exp * 0.25, "mean {mean} vs expected {exp}");
    }

    #[test]
    fn aux_errors_are_split_out() {
        let model = DisturbanceModel::paper_default();
        let mut old = PhysicalLine::all_reset(3);
        old.set_class(0, CellClass::Aux);
        old.set_state(0, CellState::S3);
        let mut new = old.clone();
        new.set_state(1, CellState::S4);
        let mut rng = StdRng::seed_from_u64(3);
        let mut saw_aux = false;
        for _ in 0..200 {
            let out = evaluate_disturbance(&old, &new, &model, &mut rng);
            assert_eq!(out.data_errors + out.aux_errors, out.total_errors());
            if out.aux_errors > 0 {
                saw_aux = true;
            }
            assert!(out.expected_aux_errors > 0.0);
        }
        assert!(saw_aux, "with 27.6% rate over 200 trials an aux error should occur");
    }

    #[test]
    #[should_panic]
    fn invalid_rate_is_rejected() {
        let _ = DisturbanceModel::new([0.1, 0.2, 1.5, 0.0]);
    }
}
