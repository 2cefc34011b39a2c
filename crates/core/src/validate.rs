//! Method validation (section 3.3).
//!
//! The paper validates with TorIX ground truth (every network flagged
//! remote really was), network-centric checks (E4A, Invitel), and an
//! independent RTT cross-check: TorIX staff measured minimum RTTs from the
//! IXP route server, matching the LG-based measurements with a mean
//! difference of 0.3 ms and variance of 1.6 ms².
//!
//! The simulation can do strictly better: the scene *is* ground truth, so
//! this module computes an exact confusion matrix per IXP, plus the same
//! route-server cross-check against an extra vantage the detector never
//! used.

use crate::campaign::Campaign;
use crate::classify::REMOTENESS_THRESHOLD_MS;
use crate::detect::DetectionStudy;
use crate::world::World;
use rp_ixp::SlotTable;
use rp_types::IxpId;
use serde::{Deserialize, Serialize};

/// Exact confusion matrix of the remoteness classifier at one IXP.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Confusion {
    /// Remote in truth, classified remote.
    pub true_positive: usize,
    /// Direct in truth, classified remote — the error the conservative
    /// threshold is designed to eliminate.
    pub false_positive: usize,
    /// Direct in truth, classified direct.
    pub true_negative: usize,
    /// Remote in truth, classified direct (nearby remote peers below the
    /// 10 ms threshold — the accepted cost of conservatism).
    pub false_negative: usize,
}

impl Confusion {
    /// Precision of the remote classification (1.0 when no false
    /// positives; degenerate all-direct cases count as perfect).
    pub fn precision(&self) -> f64 {
        let den = self.true_positive + self.false_positive;
        if den == 0 {
            1.0
        } else {
            self.true_positive as f64 / den as f64
        }
    }

    /// Recall of the remote classification.
    pub fn recall(&self) -> f64 {
        let den = self.true_positive + self.false_negative;
        if den == 0 {
            1.0
        } else {
            self.true_positive as f64 / den as f64
        }
    }

    /// F1 score: harmonic mean of precision and recall. Degenerate cases
    /// follow [`Confusion::precision`]: a matrix with no remote interfaces
    /// at all (in truth or prediction) is perfect (1.0); when precision and
    /// recall are both zero the harmonic mean is 0.0.
    pub fn f1(&self) -> f64 {
        if self.true_positive + self.false_positive + self.false_negative == 0 {
            return 1.0;
        }
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Fraction of classifications that agree with ground truth (1.0 for
    /// the empty matrix, like [`Confusion::precision`]).
    pub fn accuracy(&self) -> f64 {
        let total =
            self.true_positive + self.false_positive + self.true_negative + self.false_negative;
        if total == 0 {
            1.0
        } else {
            (self.true_positive + self.true_negative) as f64 / total as f64
        }
    }

    /// Merge counts.
    pub fn merge(&mut self, other: &Confusion) {
        self.true_positive += other.true_positive;
        self.false_positive += other.false_positive;
        self.true_negative += other.true_negative;
        self.false_negative += other.false_negative;
    }
}

/// Compare one IXP's detection result against the scene's ground truth.
pub fn confusion(world: &World, study: &DetectionStudy) -> Confusion {
    let truth = crate::lookup::truth_table(world, study.ixp);
    let mut c = Confusion::default();
    for a in &study.analyzed {
        let is_remote_truth = *truth
            .get(a.ip)
            .expect("analyzed interface exists in the scene");
        let detected = a.min_rtt_ms >= REMOTENESS_THRESHOLD_MS;
        match (is_remote_truth, detected) {
            (true, true) => c.true_positive += 1,
            (false, true) => c.false_positive += 1,
            (false, false) => c.true_negative += 1,
            (true, false) => c.false_negative += 1,
        }
    }
    c
}

/// The route-server RTT cross-check: the TorIX-style comparison of
/// per-interface minimum RTTs measured by the LG servers versus an
/// independent vantage inside the same subnet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrossCheck {
    /// Interfaces with minimums from both vantages.
    pub compared: usize,
    /// Mean of (LG minimum − route-server minimum), ms.
    pub mean_diff_ms: f64,
    /// Variance of the differences, ms².
    pub var_diff_ms2: f64,
}

/// Run the cross-check at one IXP: probe with both the LG servers and the
/// route server, filter as usual, and compare minimum RTTs per analyzed
/// interface.
pub fn route_server_crosscheck(
    world: &World,
    campaign: &Campaign,
    ixp: IxpId,
) -> (DetectionStudy, CrossCheck) {
    let probe = campaign.probe_ixp(world, ixp, true);
    let rs = probe.route_server.expect("requested route server");
    let study = DetectionStudy::analyze_ixp(world, ixp, &probe.plane);
    let rs_min: SlotTable<f64> = SlotTable::from_pairs(
        world.scene.ixp(ixp),
        rs.into_iter().filter_map(|(ip, m)| m.map(|v| (ip, v))),
    );

    let diffs: Vec<f64> = study
        .analyzed
        .iter()
        .filter_map(|a| rs_min.get(a.ip).map(|rs| a.min_rtt_ms - rs))
        .collect();
    let n = diffs.len();
    let mean = if n == 0 {
        0.0
    } else {
        diffs.iter().sum::<f64>() / n as f64
    };
    let var = if n < 2 {
        0.0
    } else {
        diffs.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / (n - 1) as f64
    };
    (
        study,
        CrossCheck {
            compared: n,
            mean_diff_ms: mean,
            var_diff_ms2: var,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    #[test]
    fn confusion_arithmetic() {
        let mut c = Confusion {
            true_positive: 8,
            false_positive: 0,
            true_negative: 90,
            false_negative: 2,
        };
        assert_eq!(c.precision(), 1.0);
        assert!((c.recall() - 0.8).abs() < 1e-12);
        c.merge(&Confusion {
            false_positive: 2,
            ..Default::default()
        });
        assert!((c.precision() - 0.8).abs() < 1e-12);
        let empty = Confusion::default();
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
    }

    #[test]
    fn f1_and_accuracy_handle_zero_denominators() {
        // Fully empty matrix: perfect by convention, like precision.
        let empty = Confusion::default();
        assert_eq!(empty.f1(), 1.0);
        assert_eq!(empty.accuracy(), 1.0);
        // All-negative population with no predictions: no remote exists,
        // so the remote classifier was never tested — still perfect.
        let all_neg = Confusion {
            true_negative: 50,
            ..Default::default()
        };
        assert_eq!(all_neg.f1(), 1.0);
        assert_eq!(all_neg.accuracy(), 1.0);
        // Precision and recall both zero: harmonic mean must be 0, not NaN.
        let all_wrong = Confusion {
            false_positive: 3,
            false_negative: 2,
            ..Default::default()
        };
        assert_eq!(all_wrong.f1(), 0.0);
        assert_eq!(all_wrong.accuracy(), 0.0);
        // A mixed matrix agrees with the direct formulas.
        let c = Confusion {
            true_positive: 8,
            false_positive: 2,
            true_negative: 85,
            false_negative: 5,
        };
        let (p, r) = (c.precision(), c.recall());
        assert!((c.f1() - 2.0 * p * r / (p + r)).abs() < 1e-12);
        assert!((c.accuracy() - 93.0 / 100.0).abs() < 1e-12);
    }

    #[test]
    fn torix_style_validation_has_no_false_positives_and_tight_crosscheck() {
        let world = World::build(&WorldConfig::test_scale(97));
        let torix = world
            .scene
            .ixps
            .iter()
            .find(|x| x.meta.acronym == "TorIX")
            .unwrap()
            .id;
        let (study, check) = route_server_crosscheck(&world, &Campaign::default_paper(), torix);
        let c = confusion(&world, &study);
        assert_eq!(c.false_positive, 0, "conservative threshold violated");
        assert!(c.true_negative > 10, "a real population was analyzed");
        // The paper's cross-check: mean 0.3 ms, variance 1.6 ms². Ours must
        // be the same order (both vantages sit in the same subnet).
        assert!(check.compared > 10, "{}", check.compared);
        assert!(
            check.mean_diff_ms.abs() < 2.0,
            "mean {}",
            check.mean_diff_ms
        );
        assert!(check.var_diff_ms2 < 8.0, "variance {}", check.var_diff_ms2);
    }
}
