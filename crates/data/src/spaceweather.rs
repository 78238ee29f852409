//! Simulated ionospheric TEC maps — the stand-in for the paper's real
//! space weather datasets SW1–SW4.
//!
//! **Substitution note (see DESIGN.md §4).** The paper clusters thresholded
//! GPS-derived Total Electron Content maps (1.86M–5.16M points); the
//! published download link is dead. What matters for VariantDBSCAN's
//! behavior is the *spatial point distribution*: dense, elongated,
//! wave-like features (Traveling Ionospheric Disturbances) and
//! storm-enhanced-density blobs over a sparse scatter background, with
//! strongly non-uniform density. This module synthesizes exactly that:
//!
//! 1. a deterministic TEC intensity field over a continental
//!    longitude/latitude window — latitudinal background gradient, several
//!    TID wave trains (plane waves with Gaussian band envelopes), and a few
//!    SED blobs;
//! 2. rejection sampling of point locations with acceptance probability
//!    proportional to the squared field — mimicking "threshold the map and
//!    keep the high-TEC pixels" while retaining scatter.
//!
//! Generation is bit-reproducible ([`crate::rng::Pcg32`]); SW1–SW4 differ
//! in storm activity (more/stronger wave trains and blobs) and in size,
//! matching Table I's point counts when generated at full scale.

use vbp_geom::{Extent, Point2};

use crate::rng::Pcg32;

/// Table I's SW dataset sizes.
pub const SW_FULL_SIZES: [usize; 4] = [1_864_620, 3_162_522, 4_179_436, 5_159_737];

/// One TID wave train: a plane wave confined to a Gaussian band.
#[derive(Clone, Copy, Debug)]
struct WaveTrain {
    /// Band center, in region coordinates.
    cx: f64,
    cy: f64,
    /// Propagation direction (radians).
    theta: f64,
    /// Wavelength (degrees).
    wavelength: f64,
    /// Band half-width (degrees, Gaussian σ across the propagation
    /// direction).
    width: f64,
    /// Peak amplitude.
    amplitude: f64,
    /// Phase offset.
    phase: f64,
}

/// One storm-enhanced-density blob.
#[derive(Clone, Copy, Debug)]
struct SedBlob {
    cx: f64,
    cy: f64,
    sigma: f64,
    amplitude: f64,
}

/// Specification of a simulated SW dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpaceWeatherSpec {
    /// Which of the four SW epochs (1–4); higher = more disturbed
    /// ionosphere (more wave trains and blobs).
    pub index: u8,
    /// Number of points to generate.
    pub size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl SpaceWeatherSpec {
    /// The paper's full-size dataset `SW<index>`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ index ≤ 4`.
    pub fn full(index: u8) -> Self {
        assert!((1..=4).contains(&index), "SW index must be 1–4");
        Self {
            index,
            size: SW_FULL_SIZES[index as usize - 1],
            seed: 0x5A11_0000 + index as u64,
        }
    }

    /// A scaled-down `SW<index>` with the given point count — same field,
    /// same distribution shape, laptop-friendly size.
    ///
    /// ```
    /// use vbp_data::SpaceWeatherSpec;
    ///
    /// let spec = SpaceWeatherSpec::scaled(1, 1_000);
    /// let points = spec.generate();
    /// assert_eq!(points.len(), 1_000);
    /// assert_eq!(points, spec.generate()); // bit-reproducible
    /// ```
    pub fn scaled(index: u8, size: usize) -> Self {
        Self {
            size,
            ..Self::full(index)
        }
    }

    /// Dataset name: `SW1` at full size, `SW1_100k`-style otherwise.
    pub fn name(&self) -> String {
        let full = SW_FULL_SIZES[self.index as usize - 1];
        if self.size == full {
            format!("SW{}", self.index)
        } else if self.size.is_multiple_of(1_000_000) && self.size > 0 {
            format!("SW{}_{}M", self.index, self.size / 1_000_000)
        } else if self.size.is_multiple_of(1_000) && self.size > 0 {
            format!("SW{}_{}k", self.index, self.size / 1_000)
        } else {
            format!("SW{}_{}", self.index, self.size)
        }
    }

    /// The map window: a continental receiver-network footprint
    /// (longitude −130°…−60°, latitude 20°…55°), the coverage shape of the
    /// paper's Figure 1.
    pub fn extent(&self) -> Extent {
        Extent::new(-130.0, 20.0, -60.0, 55.0)
    }

    /// Number of TID wave trains for this epoch.
    fn wave_count(&self) -> usize {
        2 + 2 * self.index as usize // SW1: 4 … SW4: 10
    }

    /// Number of SED blobs for this epoch.
    fn blob_count(&self) -> usize {
        1 + self.index as usize // SW1: 2 … SW4: 5
    }

    fn features(&self) -> (Vec<WaveTrain>, Vec<SedBlob>) {
        let mut rng = Pcg32::new(self.seed, 0x7EC0_F1E1_D000_0000);
        let e = self.extent();
        let (x0, y0) = (e.mbb().min.x, e.mbb().min.y);
        let (w, h) = (e.width(), e.height());
        let waves = (0..self.wave_count())
            .map(|_| WaveTrain {
                cx: x0 + rng.next_f64() * w,
                cy: y0 + rng.next_f64() * h,
                // Predominantly equatorward-propagating (southeast-ish),
                // as medium-scale TIDs are.
                theta: rng.uniform(-0.9, 0.3),
                wavelength: rng.uniform(2.0, 8.0),
                width: rng.uniform(3.0, 9.0),
                amplitude: rng.uniform(0.5, 1.0),
                phase: rng.uniform(0.0, std::f64::consts::TAU),
            })
            .collect();
        let blobs = (0..self.blob_count())
            .map(|_| SedBlob {
                cx: x0 + rng.next_f64() * w,
                cy: y0 + rng.next_f64() * h,
                sigma: rng.uniform(2.0, 6.0),
                amplitude: rng.uniform(0.6, 1.2),
            })
            .collect();
        (waves, blobs)
    }

    /// The normalized TEC intensity field (`[0, ~2]` over map coordinates
    /// longitude, latitude), with the wave trains and blobs precomputed.
    pub fn field(&self) -> TecField {
        let (waves, blobs) = self.features();
        TecField {
            spec: *self,
            waves,
            blobs,
        }
    }

    /// Generates the point set by rejection sampling the field.
    pub fn generate(&self) -> Vec<Point2> {
        let (waves, blobs) = self.features();
        let mut rng = Pcg32::new(self.seed, 0x9E11_0123_4567_89AB);
        let e = self.extent();
        let (x0, y0) = (e.mbb().min.x, e.mbb().min.y);
        let (w, h) = (e.width(), e.height());

        let mut points = Vec::with_capacity(self.size);
        while points.len() < self.size {
            let x = x0 + rng.next_f64() * w;
            let y = y0 + rng.next_f64() * h;
            let f = field_value(self, &waves, &blobs, x, y);
            // Squaring sharpens the contrast between features and
            // background — the "thresholding" of the TEC map. The 0.25
            // scale keeps acceptance < 1 for typical field peaks.
            let accept = (f * f * 0.25).min(1.0);
            if rng.next_f64() < accept {
                points.push(Point2::new(x, y));
            }
        }
        points
    }
}

/// A TEC intensity field with precomputed features.
#[derive(Clone, Debug)]
pub struct TecField {
    spec: SpaceWeatherSpec,
    waves: Vec<WaveTrain>,
    blobs: Vec<SedBlob>,
}

impl TecField {
    /// Field intensity at `(longitude, latitude)`.
    pub fn value(&self, x: f64, y: f64) -> f64 {
        field_value(&self.spec, &self.waves, &self.blobs, x, y)
    }

    /// The map window.
    pub fn extent(&self) -> Extent {
        self.spec.extent()
    }
}

/// Evaluates the field: background latitude gradient + wave trains + blobs.
fn field_value(
    spec: &SpaceWeatherSpec,
    waves: &[WaveTrain],
    blobs: &[SedBlob],
    x: f64,
    y: f64,
) -> f64 {
    let e = spec.extent();
    let (_, v) = e.normalize(&Point2::new(x, y));
    // Equatorward background: higher TEC at low latitude.
    let mut f = 0.25 + 0.35 * (1.0 - v);
    for wt in waves {
        let (sin_t, cos_t) = wt.theta.sin_cos();
        let along = (x - wt.cx) * cos_t + (y - wt.cy) * sin_t;
        let across = -(x - wt.cx) * sin_t + (y - wt.cy) * cos_t;
        let envelope = (-across * across / (2.0 * wt.width * wt.width)).exp();
        let carrier = 0.5 + 0.5 * (std::f64::consts::TAU * along / wt.wavelength + wt.phase).cos();
        f += wt.amplitude * envelope * carrier * carrier;
    }
    for b in blobs {
        let dx = x - b.cx;
        let dy = y - b.cy;
        f += b.amplitude * (-(dx * dx + dy * dy) / (2.0 * b.sigma * b.sigma)).exp();
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(SpaceWeatherSpec::full(1).name(), "SW1");
        assert_eq!(SpaceWeatherSpec::scaled(2, 100_000).name(), "SW2_100k");
        assert_eq!(SpaceWeatherSpec::scaled(3, 1_234).name(), "SW3_1234");
    }

    #[test]
    fn full_sizes_match_table1() {
        assert_eq!(SpaceWeatherSpec::full(1).size, 1_864_620);
        assert_eq!(SpaceWeatherSpec::full(4).size, 5_159_737);
    }

    #[test]
    fn generation_is_deterministic_and_sized() {
        let spec = SpaceWeatherSpec::scaled(1, 5_000);
        let a = spec.generate();
        assert_eq!(a.len(), 5_000);
        assert_eq!(a, spec.generate());
    }

    #[test]
    fn points_inside_window() {
        let spec = SpaceWeatherSpec::scaled(2, 3_000);
        let e = spec.extent();
        for p in spec.generate() {
            assert!(e.contains(&p));
        }
    }

    #[test]
    fn epochs_differ() {
        let a = SpaceWeatherSpec::scaled(1, 2_000).generate();
        let b = SpaceWeatherSpec::scaled(4, 2_000).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn field_is_positive_and_structured() {
        let spec = SpaceWeatherSpec::full(1);
        let e = spec.extent();
        let field = spec.field();
        let mut values = Vec::new();
        for i in 0..30 {
            for j in 0..30 {
                let p = e.lerp(i as f64 / 29.0, j as f64 / 29.0);
                values.push(field.value(p.x, p.y));
            }
        }
        assert!(values.iter().all(|&v| v > 0.0));
        let max = values.iter().cloned().fold(f64::MIN, f64::max);
        let min = values.iter().cloned().fold(f64::MAX, f64::min);
        // Waves and blobs must create real contrast over the background.
        assert!(max > 2.0 * min, "field too flat: {min}..{max}");
    }

    #[test]
    fn density_is_nonuniform_like_a_tec_map() {
        // Split the window into a coarse grid; occupancy must be strongly
        // skewed (dense wavefronts vs sparse background).
        let spec = SpaceWeatherSpec::scaled(1, 20_000);
        let pts = spec.generate();
        let e = spec.extent();
        let mut counts = vec![0usize; 100];
        for p in &pts {
            let (u, v) = e.normalize(p);
            let cell = ((v * 10.0).min(9.0) as usize) * 10 + (u * 10.0).min(9.0) as usize;
            counts[cell] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            max > 3 * min.max(1),
            "density too uniform: min {min}, max {max}"
        );
    }

    #[test]
    #[should_panic(expected = "SW index")]
    fn bad_index_rejected() {
        SpaceWeatherSpec::full(0);
    }
}
