//! The war-driving collection campaign (§2.1).
//!
//! Every sensor rides the same vehicle: readings for all sensors share
//! locations, which is what makes the per-reading sensor comparisons of
//! Fig 6/7 possible. Readings on a channel are spaced 150 m apart (well
//! beyond the ~20 m urban shadowing decorrelation distance the paper
//! requires), and the default 5282 readings × 150 m ≈ 800 km matches the
//! paper's drive length.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use waldo_rf::world::World;
use waldo_rf::TvChannel;
use waldo_sensors::{calibrate, Calibration, Observation, SensorKind, SensorModel};

use crate::{ChannelDataset, Labeler, Measurement, Safety};

/// Builder for [`Campaign`].
///
/// # Examples
///
/// ```
/// use waldo_rf::world::WorldBuilder;
/// use waldo_data::CampaignBuilder;
///
/// let world = WorldBuilder::new().seed(3).build();
/// let campaign = CampaignBuilder::new(&world)
///     .readings_per_channel(200)
///     .seed(3)
///     .collect();
/// assert_eq!(campaign.channels().len(), 9);
/// ```
#[derive(Debug, Clone)]
pub struct CampaignBuilder<'a> {
    world: &'a World,
    sensors: Vec<SensorModel>,
    readings_per_channel: usize,
    spacing_m: f64,
    seed: u64,
    labeler: Labeler,
    wired_calibration: bool,
}

impl<'a> CampaignBuilder<'a> {
    /// Starts a campaign over `world` with the paper's defaults: all three
    /// sensors, 5282 readings per channel, 150 m spacing, Algorithm-1
    /// labeling, wired calibration for the SDRs.
    pub fn new(world: &'a World) -> Self {
        Self {
            world,
            sensors: vec![
                SensorModel::rtl_sdr(),
                SensorModel::usrp_b200(),
                SensorModel::spectrum_analyzer(),
            ],
            readings_per_channel: 5282,
            spacing_m: 150.0,
            seed: 0,
            labeler: Labeler::new(),
            wired_calibration: true,
        }
    }

    /// Restricts the sensor fleet.
    ///
    /// # Panics
    ///
    /// Panics if `sensors` is empty.
    pub fn sensors(mut self, sensors: Vec<SensorModel>) -> Self {
        assert!(!sensors.is_empty(), "need at least one sensor");
        self.sensors = sensors;
        self
    }

    /// Number of readings per channel (default 5282).
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn readings_per_channel(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one reading");
        self.readings_per_channel = n;
        self
    }

    /// Along-route spacing between readings (default 150 m; must exceed the
    /// 20 m decorrelation minimum of §2.1).
    ///
    /// # Panics
    ///
    /// Panics unless `m > 20.0`.
    pub fn spacing_m(mut self, m: f64) -> Self {
        assert!(m > 20.0, "readings must be spaced more than 20 m apart");
        self.spacing_m = m;
        self
    }

    /// Campaign seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the labeler (antenna correction, threshold, radius).
    pub fn labeler(mut self, labeler: Labeler) -> Self {
        self.labeler = labeler;
        self
    }

    /// Uses exact factory calibration instead of running the wired
    /// calibration procedure (faster for tests; the full pipeline is the
    /// default).
    pub fn factory_calibration(mut self) -> Self {
        self.wired_calibration = false;
        self
    }

    /// Runs the campaign: drives the route, collects every (sensor,
    /// channel) series, and labels each with Algorithm 1.
    ///
    /// The (sensor, channel) series fan out across the [`waldo_par`]
    /// worker pool. Each series seeds its own RNG from `(seed, channel,
    /// sensor)` — no generator is shared across series — so the parallel
    /// collection is bit-identical to a serial one (and to any worker
    /// count); see `waldo_par::with_workers` to pin the pool size.
    pub fn collect(&self) -> Campaign {
        let _t = waldo_obs::timed("collect");
        let path = waldo_geo::DrivePathBuilder::new(self.world.region())
            .seed(self.seed ^ xd21ve_u64())
            .build();
        let samples = path.samples(self.readings_per_channel, self.spacing_m);

        // Calibrations depend only on the sensor (their RNG is salted with
        // the campaign seed, not the channel), so run them once up front
        // and share them across the fan-out.
        let calibrations: Vec<Calibration> =
            self.sensors.iter().map(|s| self.calibration_for(s)).collect();

        let channels = self.world.field().channels();
        let series: Vec<(usize, TvChannel)> =
            (0..self.sensors.len()).flat_map(|i| channels.iter().map(move |&c| (i, c))).collect();

        let collected = waldo_par::par_map(&series, |&(i, channel)| {
            let sensor = &self.sensors[i];
            let calibration = &calibrations[i];
            let mut rng = StdRng::seed_from_u64(
                self.seed
                    .wrapping_mul(0x517c_c1b7_2722_0a95)
                    .wrapping_add((channel.number() as u64) << 8)
                    .wrapping_add(sensor.kind() as u64),
            );
            let measurements: Vec<Measurement> = samples
                .iter()
                .map(|s| {
                    let true_rss = self.world.field().rss_dbm(channel, s.point);
                    let rss_opt = true_rss.is_finite().then_some(true_rss);
                    Measurement {
                        location: s.point,
                        odometer_m: s.odometer_m,
                        observation: Observation::measure(sensor, calibration, rss_opt, &mut rng),
                        true_rss_dbm: true_rss,
                    }
                })
                .collect();
            let readings: Vec<_> =
                measurements.iter().map(|m| (m.location, m.observation.rss_dbm)).collect();
            let labels = self.labeler.label(&readings);
            (
                (sensor.kind(), channel),
                ChannelDataset::new(channel, sensor.kind(), measurements, labels),
            )
        });

        Campaign { datasets: collected.into_iter().collect(), labeler: self.labeler }
    }

    fn calibration_for(&self, sensor: &SensorModel) -> Calibration {
        if sensor.kind() == SensorKind::SpectrumAnalyzer {
            return Calibration::identity();
        }
        if !self.wired_calibration {
            return Calibration::factory(sensor);
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ xca11b_u64());
        calibrate(sensor, &[-90.0, -80.0, -70.0, -60.0, -50.0], 30, &mut rng)
            .unwrap_or_else(|_| Calibration::factory(sensor))
    }
}

// Salt helpers (readable hex tags would collide with identifier rules).
fn xd21ve_u64() -> u64 {
    0x0064_7269_7665 // "drive"
}
fn xca11b_u64() -> u64 {
    0x0063_616c_6962 // "calib"
}

/// The collected measurement campaign: one labeled [`ChannelDataset`] per
/// (sensor, channel).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Campaign {
    datasets: BTreeMap<(SensorKind, TvChannel), ChannelDataset>,
    #[serde(skip, default = "Labeler::new")]
    labeler: Labeler,
}

impl Campaign {
    /// Channels present (ascending).
    pub fn channels(&self) -> Vec<TvChannel> {
        let mut out: Vec<TvChannel> = self.datasets.keys().map(|&(_, c)| c).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Sensors present.
    pub fn sensors(&self) -> Vec<SensorKind> {
        let mut out: Vec<SensorKind> = self.datasets.keys().map(|&(s, _)| s).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// One (sensor, channel) series.
    pub fn dataset(&self, sensor: SensorKind, channel: TvChannel) -> Option<&ChannelDataset> {
        self.datasets.get(&(sensor, channel))
    }

    /// Ground-truth labels for a channel: the spectrum-analyzer series run
    /// through Algorithm 1 ("spectrum analyzer data is used only for
    /// validation, not labeling", §2.2 — baselines and Waldo never see it).
    ///
    /// # Panics
    ///
    /// Panics (naming the channel and the series actually collected) if
    /// the analyzer did not ride along or the channel was not driven.
    pub fn ground_truth(&self, channel: TvChannel) -> &ChannelDataset {
        self.dataset(SensorKind::SpectrumAnalyzer, channel).unwrap_or_else(|| {
            panic!(
                "no spectrum-analyzer ground truth for {channel}: the campaign holds \
                 sensors {:?} over channels {:?}",
                self.sensors(),
                self.channels()
            )
        })
    }

    /// Re-labels one series with a different labeler (e.g. with the antenna
    /// correction factor) without re-driving the campaign.
    ///
    /// # Panics
    ///
    /// Panics (naming the sensor, channel, and what was collected) if the
    /// requested series is absent.
    pub fn relabel(
        &self,
        sensor: SensorKind,
        channel: TvChannel,
        labeler: &Labeler,
    ) -> Vec<Safety> {
        let ds = self.dataset(sensor, channel).unwrap_or_else(|| {
            panic!(
                "series ({sensor:?}, {channel}) was not collected: the campaign holds \
                 sensors {:?} over channels {:?}",
                self.sensors(),
                self.channels()
            )
        });
        let readings: Vec<_> =
            ds.measurements().iter().map(|m| (m.location, m.observation.rss_dbm)).collect();
        labeler.label(&readings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waldo_rf::world::WorldBuilder;

    fn small_campaign() -> &'static Campaign {
        static CAMPAIGN: std::sync::OnceLock<Campaign> = std::sync::OnceLock::new();
        CAMPAIGN.get_or_init(build_small_campaign)
    }

    fn build_small_campaign() -> Campaign {
        let world = WorldBuilder::new().seed(11).build();
        // 300 readings spread over the full ~500 km route (the default
        // 150 m spacing only makes sense with the full 5282 readings).
        CampaignBuilder::new(&world)
            .readings_per_channel(300)
            .spacing_m(2_000.0)
            .factory_calibration()
            .seed(11)
            .collect()
    }

    #[test]
    fn collects_every_sensor_channel_pair() {
        let c = small_campaign();
        assert_eq!(c.channels().len(), 9);
        assert_eq!(c.sensors().len(), 3);
        for s in c.sensors() {
            for ch in c.channels() {
                let ds = c.dataset(s, ch).unwrap();
                assert_eq!(ds.len(), 300);
                assert_eq!(ds.sensor(), s);
                assert_eq!(ds.channel(), ch);
            }
        }
    }

    #[test]
    fn sensors_share_locations() {
        let c = small_campaign();
        let ch = c.channels()[0];
        let rtl = c.dataset(SensorKind::RtlSdr, ch).unwrap();
        let sa = c.dataset(SensorKind::SpectrumAnalyzer, ch).unwrap();
        for (a, b) in rtl.measurements().iter().zip(sa.measurements()) {
            assert_eq!(a.location, b.location);
            assert_eq!(a.true_rss_dbm, b.true_rss_dbm);
        }
    }

    #[test]
    fn occupied_channels_label_fully_not_safe() {
        let c = small_campaign();
        for n in [27u8, 39] {
            let ch = TvChannel::new(n).unwrap();
            let truth = c.ground_truth(ch);
            assert!(truth.not_safe_fraction() > 0.999, "{ch}: {}", truth.not_safe_fraction());
        }
    }

    #[test]
    fn evaluation_channels_have_mixed_labels() {
        let c = small_campaign();
        for ch in TvChannel::EVALUATION {
            let truth = c.ground_truth(ch);
            let f = truth.not_safe_fraction();
            assert!((0.02..=0.98).contains(&f), "{ch}: fraction {f}");
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let world = WorldBuilder::new().seed(4).build();
        let a = CampaignBuilder::new(&world)
            .readings_per_channel(50)
            .factory_calibration()
            .seed(4)
            .collect();
        let b = CampaignBuilder::new(&world)
            .readings_per_channel(50)
            .factory_calibration()
            .seed(4)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn relabel_with_correction_increases_not_safe() {
        let c = small_campaign();
        let ch = TvChannel::new(21).unwrap();
        let plain = c.ground_truth(ch).not_safe_fraction();
        let corrected =
            c.relabel(SensorKind::SpectrumAnalyzer, ch, &Labeler::new().antenna_correction_db(7.4));
        let frac =
            corrected.iter().filter(|l| l.is_not_safe()).count() as f64 / corrected.len() as f64;
        assert!(frac >= plain, "correction cannot reduce protection");
        assert!(frac > 0.95, "ch21 should become (nearly) fully protected: {frac}");
    }

    #[test]
    #[should_panic(expected = "more than 20 m")]
    fn tight_spacing_panics() {
        let world = WorldBuilder::new().build();
        let _ = CampaignBuilder::new(&world).spacing_m(10.0);
    }

    #[test]
    fn parallel_collection_matches_serial_bit_for_bit() {
        let world = WorldBuilder::new().seed(6).build();
        let build = || {
            CampaignBuilder::new(&world)
                .readings_per_channel(40)
                .spacing_m(2_000.0)
                .factory_calibration()
                .seed(6)
                .collect()
        };
        let serial = waldo_par::with_workers(1, build);
        for workers in [2usize, 4] {
            let parallel = waldo_par::with_workers(workers, build);
            assert_eq!(serial, parallel, "worker count {workers} changed the campaign");
        }
    }

    #[test]
    #[should_panic(expected = "no spectrum-analyzer ground truth")]
    fn ground_truth_without_analyzer_panics_descriptively() {
        let world = WorldBuilder::new().seed(2).build();
        let c = CampaignBuilder::new(&world)
            .sensors(vec![SensorModel::rtl_sdr()])
            .readings_per_channel(25)
            .spacing_m(2_000.0)
            .factory_calibration()
            .collect();
        let _ = c.ground_truth(c.channels()[0]);
    }

    #[test]
    #[should_panic(expected = "was not collected")]
    fn relabel_missing_series_panics_descriptively() {
        let world = WorldBuilder::new().seed(2).build();
        let c = CampaignBuilder::new(&world)
            .sensors(vec![SensorModel::rtl_sdr()])
            .readings_per_channel(25)
            .spacing_m(2_000.0)
            .factory_calibration()
            .collect();
        let _ = c.relabel(SensorKind::UsrpB200, c.channels()[0], &Labeler::new());
    }
}
