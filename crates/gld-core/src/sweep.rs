//! Rate–distortion sweep helpers shared by the integration tests and the
//! benchmark harness (Figure 3, Figure 4, Figure 5 and the headline-claim
//! summary all consume [`RateSweep`]s).

/// One point on a compression-ratio / NRMSE curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RatePoint {
    /// Compression ratio (original bytes / compressed bytes).
    pub compression_ratio: f64,
    /// Normalised root mean squared error of the reconstruction.
    pub nrmse: f32,
}

/// A labelled rate–distortion curve for one compressor on one dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct RateSweep {
    /// Compressor name as shown in the paper's figures.
    pub method: String,
    /// Dataset name.
    pub dataset: String,
    /// Swept points, ordered by decreasing error bound.
    pub points: Vec<RatePoint>,
}

impl RateSweep {
    /// Creates an empty sweep.
    pub fn new(method: impl Into<String>, dataset: impl Into<String>) -> Self {
        RateSweep {
            method: method.into(),
            dataset: dataset.into(),
            points: Vec::new(),
        }
    }

    /// Adds a point.
    pub fn push(&mut self, compression_ratio: f64, nrmse: f32) {
        self.points.push(RatePoint {
            compression_ratio,
            nrmse,
        });
    }

    /// The compression ratio this sweep achieves at (or below) the given
    /// NRMSE, estimated by linear interpolation between neighbouring points;
    /// `None` when the curve never reaches that error level.
    pub fn ratio_at_nrmse(&self, target: f32) -> Option<f64> {
        let mut points = self.points.clone();
        points.sort_by(|a, b| a.nrmse.partial_cmp(&b.nrmse).unwrap());
        if points.is_empty() || points[0].nrmse > target {
            return None;
        }
        let mut best = points[0].compression_ratio;
        for pair in points.windows(2) {
            let (lo, hi) = (pair[0], pair[1]);
            if hi.nrmse <= target {
                best = best.max(hi.compression_ratio);
            } else if lo.nrmse <= target && target < hi.nrmse {
                let t = (target - lo.nrmse) / (hi.nrmse - lo.nrmse).max(1e-12);
                let interp =
                    lo.compression_ratio + (hi.compression_ratio - lo.compression_ratio) * t as f64;
                best = best.max(interp);
            }
        }
        Some(best)
    }

    /// Improvement factor of this sweep over `other` at a matched NRMSE
    /// (`> 1` means this sweep compresses better), or `None` when either
    /// curve does not reach the target error.
    pub fn improvement_over(&self, other: &RateSweep, target_nrmse: f32) -> Option<f64> {
        let ours = self.ratio_at_nrmse(target_nrmse)?;
        let theirs = other.ratio_at_nrmse(target_nrmse)?;
        Some(ours / theirs)
    }

    /// Serialises the sweep as a CSV fragment (`method,dataset,ratio,nrmse`).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for p in &self.points {
            out.push_str(&format!(
                "{},{},{:.3},{:.6}\n",
                self.method, self.dataset, p.compression_ratio, p.nrmse
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(points: &[(f64, f32)]) -> RateSweep {
        let mut s = RateSweep::new("m", "d");
        for &(r, e) in points {
            s.push(r, e);
        }
        s
    }

    #[test]
    fn ratio_at_nrmse_interpolates() {
        let s = sweep(&[(10.0, 1e-3), (50.0, 5e-3), (100.0, 1e-2)]);
        // Exact hits.
        assert!((s.ratio_at_nrmse(1e-3).unwrap() - 10.0).abs() < 1e-9);
        assert!((s.ratio_at_nrmse(1e-2).unwrap() - 100.0).abs() < 1e-9);
        // Between points: monotone interpolation.
        let mid = s.ratio_at_nrmse(7.5e-3).unwrap();
        assert!(mid > 50.0 && mid < 100.0);
        // Below the reachable range.
        assert!(s.ratio_at_nrmse(1e-4).is_none());
    }

    #[test]
    fn improvement_factor() {
        let ours = sweep(&[(40.0, 1e-3), (200.0, 1e-2)]);
        let baseline = sweep(&[(10.0, 1e-3), (50.0, 1e-2)]);
        let imp = ours.improvement_over(&baseline, 1e-2).unwrap();
        assert!((imp - 4.0).abs() < 1e-9);
        assert!(baseline.improvement_over(&ours, 1e-2).unwrap() < 1.0);
    }

    #[test]
    fn csv_output_contains_every_point() {
        let s = sweep(&[(10.0, 1e-3), (20.0, 2e-3)]);
        let csv = s.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("m,d,10.000"));
    }
}
