//! Keyframe selection strategies (paper §4.4) and the interpolation-interval
//! ablation (§4.5).

use gld_diffusion::FramePartition;

/// How the conditioning keyframes of an `N`-frame block are chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyframeStrategy {
    /// Keyframes spread uniformly across the block with the given interval;
    /// the model interpolates between them (the paper's best strategy, with
    /// interval 3 the recommended default).
    Interpolation {
        /// Distance between consecutive keyframes.
        interval: usize,
    },
    /// The first `count` frames are keyframes; the rest are extrapolated
    /// (prediction-based strategy).
    Prediction {
        /// Number of leading keyframes.
        count: usize,
    },
    /// The first `count − 1` frames plus the final frame are keyframes.
    Mixed {
        /// Total number of keyframes.
        count: usize,
    },
}

impl KeyframeStrategy {
    /// The paper's default: interpolation with interval 3.
    pub fn paper_default() -> Self {
        KeyframeStrategy::Interpolation { interval: 3 }
    }

    /// Human-readable name for tables and plots.
    pub fn name(&self) -> String {
        match self {
            KeyframeStrategy::Interpolation { interval } => {
                format!("interpolation (interval {interval})")
            }
            KeyframeStrategy::Prediction { count } => {
                format!("prediction ({count} leading keyframes)")
            }
            KeyframeStrategy::Mixed { count } => format!("mixed ({count} keyframes)"),
        }
    }

    /// The conditioning indices for an `N`-frame block.
    pub fn conditioning_indices(&self, n: usize) -> Vec<usize> {
        assert!(n >= 2, "blocks must have at least two frames");
        match *self {
            KeyframeStrategy::Interpolation { interval } => {
                assert!(interval >= 1, "interval must be at least 1");
                let mut idx: Vec<usize> = (0..n).step_by(interval).collect();
                // Always keep the final frame as a keyframe so interpolation
                // never extrapolates past the last anchor.
                if *idx.last().unwrap() != n - 1 {
                    idx.push(n - 1);
                }
                idx
            }
            KeyframeStrategy::Prediction { count } => {
                let count = count.clamp(1, n - 1);
                (0..count).collect()
            }
            KeyframeStrategy::Mixed { count } => {
                let count = count.clamp(2, n - 1);
                let mut idx: Vec<usize> = (0..count - 1).collect();
                idx.push(n - 1);
                idx
            }
        }
    }

    /// Builds the frame partition for an `N`-frame block.
    pub fn partition(&self, n: usize) -> FramePartition {
        FramePartition::from_conditioning(n, &self.conditioning_indices(n))
    }

    /// The three strategies compared in Figure 2, configured exactly as in
    /// the paper (6 keyframes out of N = 16).
    pub fn figure2_strategies() -> Vec<KeyframeStrategy> {
        vec![
            KeyframeStrategy::Interpolation { interval: 3 },
            KeyframeStrategy::Prediction { count: 6 },
            KeyframeStrategy::Mixed { count: 6 },
        ]
    }
}

/// Storage accounting for a keyframe choice.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KeyframeSummary {
    /// Total frames per block.
    pub total_frames: usize,
    /// Number of keyframes stored.
    pub keyframes: usize,
    /// Fraction of frames whose latents must be stored.
    pub stored_fraction: f32,
}

impl KeyframeSummary {
    /// Summarises a strategy on `N`-frame blocks.
    pub fn of(strategy: &KeyframeStrategy, n: usize) -> Self {
        let k = strategy.conditioning_indices(n).len();
        KeyframeSummary {
            total_frames: n,
            keyframes: k,
            stored_fraction: k as f32 / n as f32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_matches_paper_indices() {
        // Paper (1-based): {1, 4, 7, 10, 13, 16} for N = 16, interval 3.
        let idx = KeyframeStrategy::Interpolation { interval: 3 }.conditioning_indices(16);
        assert_eq!(idx, vec![0, 3, 6, 9, 12, 15]);
    }

    #[test]
    fn prediction_matches_paper_indices() {
        // Paper (1-based): {1, 2, 3, 4, 5, 6}.
        let idx = KeyframeStrategy::Prediction { count: 6 }.conditioning_indices(16);
        assert_eq!(idx, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn mixed_matches_paper_indices() {
        // Paper (1-based): {1, 2, 3, 4, 5, 16}.
        let idx = KeyframeStrategy::Mixed { count: 6 }.conditioning_indices(16);
        assert_eq!(idx, vec![0, 1, 2, 3, 4, 15]);
    }

    #[test]
    fn interpolation_always_anchors_last_frame() {
        for interval in 2..=6 {
            for n in [8usize, 12, 16] {
                let idx = KeyframeStrategy::Interpolation { interval }.conditioning_indices(n);
                assert_eq!(*idx.last().unwrap(), n - 1, "interval {interval}, n {n}");
                assert_eq!(idx[0], 0);
            }
        }
    }

    #[test]
    fn partitions_are_valid() {
        for strategy in KeyframeStrategy::figure2_strategies() {
            let p = strategy.partition(16);
            assert_eq!(p.total, 16);
            assert_eq!(p.num_conditioning() + p.num_generated(), 16);
            assert!(p.num_generated() > 0);
        }
    }

    #[test]
    fn larger_interval_stores_fewer_keyframes() {
        let f2 = KeyframeSummary::of(&KeyframeStrategy::Interpolation { interval: 2 }, 16);
        let f6 = KeyframeSummary::of(&KeyframeStrategy::Interpolation { interval: 6 }, 16);
        assert!(f6.keyframes < f2.keyframes);
        assert!(f6.stored_fraction < f2.stored_fraction);
        assert!((f2.stored_fraction - f2.keyframes as f32 / 16.0).abs() < 1e-6);
    }

    #[test]
    fn strategy_names_are_informative() {
        assert!(KeyframeStrategy::paper_default()
            .name()
            .contains("interval 3"));
        assert!(KeyframeStrategy::Prediction { count: 6 }
            .name()
            .contains("prediction"));
    }
}
