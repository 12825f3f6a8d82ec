//! Dataset containers: variables, specs and Table-1 style inventory rows.

use gld_tensor::Tensor;

/// Which scientific application a dataset mimics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Energy Exascale Earth System Model (climate).
    E3sm,
    /// S3D direct numerical combustion simulation.
    S3d,
    /// Johns Hopkins Turbulence Database (isotropic turbulence).
    Jhtdb,
}

impl DatasetKind {
    /// Human-readable name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::E3sm => "E3SM",
            DatasetKind::S3d => "S3D",
            DatasetKind::Jhtdb => "JHTDB",
        }
    }

    /// Application domain as listed in Table 1.
    pub fn domain(&self) -> &'static str {
        match self {
            DatasetKind::E3sm => "Climate",
            DatasetKind::S3d => "Combustion",
            DatasetKind::Jhtdb => "Turbulence",
        }
    }

    /// All supported kinds.
    pub fn all() -> [DatasetKind; 3] {
        [DatasetKind::E3sm, DatasetKind::S3d, DatasetKind::Jhtdb]
    }
}

/// Size specification for a generated dataset.
///
/// The defaults are intentionally small so tests finish quickly; the bench
/// harness scales them up via [`FieldSpec::bench`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FieldSpec {
    /// Number of physical variables (channels).
    pub variables: usize,
    /// Number of timesteps.
    pub timesteps: usize,
    /// Spatial height of each frame.
    pub height: usize,
    /// Spatial width of each frame.
    pub width: usize,
}

impl FieldSpec {
    /// Creates a spec.
    pub fn new(variables: usize, timesteps: usize, height: usize, width: usize) -> Self {
        FieldSpec {
            variables,
            timesteps,
            height,
            width,
        }
    }

    /// Small spec for unit tests (2 variables, 16 frames of 16×16).
    pub fn tiny() -> Self {
        FieldSpec::new(2, 16, 16, 16)
    }

    /// Default spec for the benchmark harness (3 variables, 48 frames of
    /// 32×32), scaled to run the full experiment matrix on a single CPU core
    /// in reasonable time while preserving the paper's temporal structure
    /// (blocks of N = 16 frames).
    pub fn bench() -> Self {
        FieldSpec::new(3, 48, 32, 32)
    }

    /// Total number of scalar values.
    pub fn numel(&self) -> usize {
        self.variables * self.timesteps * self.height * self.width
    }

    /// Total uncompressed size in bytes (f32 storage).
    pub fn size_bytes(&self) -> usize {
        self.numel() * std::mem::size_of::<f32>()
    }
}

/// One physical variable: a named `[T, H, W]` tensor.
#[derive(Clone, Debug)]
pub struct Variable {
    /// Variable name (e.g. "temperature", "species_07", "velocity_u").
    pub name: String,
    /// Frame stack of shape `[timesteps, height, width]`.
    pub frames: Tensor,
}

impl Variable {
    /// Creates a variable, validating the frame tensor rank.
    pub fn new(name: impl Into<String>, frames: Tensor) -> Self {
        assert_eq!(frames.rank(), 3, "variable frames must be [T, H, W]");
        Variable {
            name: name.into(),
            frames,
        }
    }

    /// Number of timesteps.
    pub fn timesteps(&self) -> usize {
        self.frames.dim(0)
    }

    /// One frame as an `[H, W]` tensor.
    pub fn frame(&self, t: usize) -> Tensor {
        self.frames.slice_axis(0, t, t + 1).squeeze(0)
    }

    /// Value range across all frames.
    pub fn range(&self) -> (f32, f32) {
        (self.frames.min(), self.frames.max())
    }
}

/// A generated dataset: several variables over a common grid.
#[derive(Clone, Debug)]
pub struct ScientificDataset {
    /// Which application the dataset mimics.
    pub kind: DatasetKind,
    /// The spec it was generated from.
    pub spec: FieldSpec,
    /// Per-variable frame stacks.
    pub variables: Vec<Variable>,
}

impl ScientificDataset {
    /// Stacks all variables into a single `[V, T, H, W]` tensor.
    pub fn as_tensor(&self) -> Tensor {
        let unsqueezed: Vec<Tensor> = self
            .variables
            .iter()
            .map(|v| v.frames.unsqueeze(0))
            .collect();
        let refs: Vec<&Tensor> = unsqueezed.iter().collect();
        Tensor::concat(&refs, 0)
    }

    /// Total number of scalar values.
    pub fn numel(&self) -> usize {
        self.variables.iter().map(|v| v.frames.numel()).sum()
    }

    /// Uncompressed size in bytes (f32 storage).
    pub fn size_bytes(&self) -> usize {
        self.numel() * std::mem::size_of::<f32>()
    }

    /// Global value range across all variables.
    pub fn range(&self) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for v in &self.variables {
            let (vl, vh) = v.range();
            lo = lo.min(vl);
            hi = hi.max(vh);
        }
        (lo, hi)
    }
}

/// A Table-1 style inventory row.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetInfo {
    /// Dataset name.
    pub name: String,
    /// Application domain.
    pub domain: String,
    /// Dimensions in `[V, T, H, W]` order.
    pub dims: [usize; 4],
    /// Total size in bytes.
    pub size_bytes: u64,
}

impl DatasetInfo {
    /// The paper's Table 1 row for E3SM (5 × 8640 × 240 × 1440, 59.7 GB).
    pub fn paper_e3sm() -> Self {
        DatasetInfo {
            name: "E3SM".into(),
            domain: "Climate".into(),
            dims: [5, 8640, 240, 1440],
            size_bytes: 59_700_000_000,
        }
    }

    /// The paper's Table 1 row for S3D (58 × 200 × 512 × 512, 24.3 GB).
    pub fn paper_s3d() -> Self {
        DatasetInfo {
            name: "S3D".into(),
            domain: "Combustion".into(),
            dims: [58, 200, 512, 512],
            size_bytes: 24_300_000_000,
        }
    }

    /// The paper's Table 1 row for JHTDB (64 × 256 × 512 × 512, 34.3 GB).
    pub fn paper_jhtdb() -> Self {
        DatasetInfo {
            name: "JHTDB".into(),
            domain: "Turbulence".into(),
            dims: [64, 256, 512, 512],
            size_bytes: 34_300_000_000,
        }
    }

    /// The synthetic stand-in row for a given kind and spec.
    pub fn synthetic(kind: DatasetKind, spec: &FieldSpec) -> Self {
        DatasetInfo {
            name: format!("{} (synthetic)", kind.name()),
            domain: kind.domain().into(),
            dims: [spec.variables, spec.timesteps, spec.height, spec.width],
            size_bytes: spec.size_bytes() as u64,
        }
    }

    /// Human-readable size ("24.3 GB", "1.5 MB", …).
    pub fn size_human(&self) -> String {
        let b = self.size_bytes as f64;
        if b >= 1e9 {
            format!("{:.1} GB", b / 1e9)
        } else if b >= 1e6 {
            format!("{:.1} MB", b / 1e6)
        } else if b >= 1e3 {
            format!("{:.1} KB", b / 1e3)
        } else {
            format!("{b} B")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_accounting() {
        let spec = FieldSpec::new(2, 10, 8, 8);
        assert_eq!(spec.numel(), 2 * 10 * 8 * 8);
        assert_eq!(spec.size_bytes(), spec.numel() * 4);
    }

    #[test]
    fn variable_frame_access() {
        let frames = Tensor::arange(2 * 3 * 4).reshape(&[2, 3, 4]);
        let v = Variable::new("t", frames.clone());
        assert_eq!(v.timesteps(), 2);
        let f1 = v.frame(1);
        assert_eq!(f1.dims(), &[3, 4]);
        assert_eq!(f1.at(&[0, 0]), frames.at(&[1, 0, 0]));
    }

    #[test]
    fn dataset_stacks_variables() {
        let spec = FieldSpec::tiny();
        let v0 = Variable::new(
            "a",
            Tensor::zeros(&[spec.timesteps, spec.height, spec.width]),
        );
        let v1 = Variable::new(
            "b",
            Tensor::ones(&[spec.timesteps, spec.height, spec.width]),
        );
        let ds = ScientificDataset {
            kind: DatasetKind::E3sm,
            spec,
            variables: vec![v0, v1],
        };
        let t = ds.as_tensor();
        assert_eq!(t.dims(), &[2, spec.timesteps, spec.height, spec.width]);
        assert_eq!(ds.range(), (0.0, 1.0));
    }

    #[test]
    fn paper_table1_rows_match_paper() {
        let e = DatasetInfo::paper_e3sm();
        assert_eq!(e.dims, [5, 8640, 240, 1440]);
        assert_eq!(e.size_human(), "59.7 GB");
        let s = DatasetInfo::paper_s3d();
        assert_eq!(s.dims, [58, 200, 512, 512]);
        assert_eq!(s.size_human(), "24.3 GB");
        let j = DatasetInfo::paper_jhtdb();
        assert_eq!(j.dims, [64, 256, 512, 512]);
        assert_eq!(j.size_human(), "34.3 GB");
    }

    #[test]
    fn synthetic_info_reflects_spec() {
        let spec = FieldSpec::new(3, 48, 32, 32);
        let info = DatasetInfo::synthetic(DatasetKind::Jhtdb, &spec);
        assert_eq!(info.dims, [3, 48, 32, 32]);
        assert!(info.name.contains("JHTDB"));
        assert_eq!(info.size_bytes, spec.size_bytes() as u64);
    }

    #[test]
    fn kind_names() {
        assert_eq!(DatasetKind::E3sm.name(), "E3SM");
        assert_eq!(DatasetKind::S3d.domain(), "Combustion");
        assert_eq!(DatasetKind::all().len(), 3);
    }
}
