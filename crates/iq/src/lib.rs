//! Baseband substrate: the signal path between the antenna and the
//! classifier.
//!
//! Every measurement in the paper is 256 In-phase/Quadrature (I/Q) samples
//! plus the signal power an energy detector derives from them (§2.1). Waldo's
//! classifiers then consume three spectral features (§3.2): received signal
//! strength (**RSS**), the central DFT bin (**CFT**), and the average of the
//! central 15 % of DFT bins (**AFT**). This crate implements that entire
//! path from scratch:
//!
//! * [`Complex`] — a minimal complex number type.
//! * [`FrameBatch`] — structure-of-arrays storage for one reading's worth
//!   of frames, the unit of the fused synth → FFT → feature pipeline.
//! * [`fft`] — an iterative radix-2 FFT driven by cached [`FftPlan`]s,
//!   one frame at a time or [`EXTRACT_LANES`] frames lane-wise (plus a
//!   reference DFT used in tests).
//! * [`window`] — Hann / Hamming / Blackman / rectangular windows.
//! * [`synth`] — ATSC-like frame synthesis: pilot tone (11.3 dB below total
//!   channel power) + noise-like 8VSB data skirt + AWGN.
//! * [`EnergyDetector`] — conventional energy detection and the paper's
//!   pilot-narrowband trick (+12 dB pilot-to-channel correction).
//! * [`matched`] — matched-filter pilot detection (the related-work
//!   upgrade path; kept as an ablation of detector headroom).
//! * [`features`] — the RSS/CFT/AFT extraction stage plus the candidate
//!   features the paper screened out with ANOVA.
//!
//! # Examples
//!
//! ```
//! use waldo_iq::{FrameSynthesizer, EnergyDetector};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let frame = FrameSynthesizer::new(256)
//!     .pilot_dbfs(-30.0)
//!     .noise_dbfs(-60.0)
//!     .synthesize(&mut rng);
//! let det = EnergyDetector::new();
//! let p = det.wideband_dbfs(&frame);
//! assert!((p - -30.0).abs() < 2.0, "measured {p}");
//! ```

mod batch;
mod complex;
mod detect;
pub mod features;
pub mod fft;
pub mod gauss;
pub mod matched;
mod spectral;
pub mod synth;
mod units;
pub mod window;

pub use batch::FrameBatch;
pub use complex::Complex;
pub use detect::EnergyDetector;
pub use features::{Extraction, FeatureKind, FeatureSet, FeatureVector};
pub use fft::FftPlan;
pub use spectral::EXTRACT_LANES;
pub use synth::{FrameSynthesizer, IqFrame};
pub use units::{db_power_sum, db_to_power, power_to_db};
