//! The simulated city every phase runs in: a small RTL-SDR campaign, the
//! model trained from it, device sites with their ground truth, and the
//! crowd-sourced readings the crowd loop uploads.
//!
//! Everything here is input generation. The city, the campaign that
//! trains the deployed model, and so the model itself, are fixed per
//! workload: they are the system under test, and two runs of a workload
//! compare the same system. The load comes from the run's seed: the device
//! sites, the scanner streams, the store pre-load, the crowd uploads and
//! their timing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use waldo::{ModelConstructor, WaldoConfig, WaldoModel};
use waldo_data::{CampaignBuilder, ChannelDataset, Labeler, Safety};
use waldo_geo::Point;
use waldo_ml::Dataset;
use waldo_rf::world::{World, WorldBuilder};
use waldo_rf::TvChannel;
use waldo_sensors::{ReadingSample, SensorKind, SensorModel};

/// The TV channel every phase serves and senses: an edge channel whose
/// protected contour crosses the region.
pub const CHANNEL: u8 = 47;
/// Seed of the fixed simulated city.
const WORLD_SEED: u64 = 7;
/// Seed of the fixed campaign route and of the model's training. The
/// model's locality split sets what each refit costs; drawn from the run's
/// seed, it moved `compact`'s median refit time between 14 and 56 ms over
/// five seeds.
const MODEL_SEED: u64 = 11;
/// Algorithm 1's decodability threshold and protection radius.
const THRESHOLD_DBM: f64 = -84.0;
const RADIUS_M: f64 = 6_000.0;
/// Grid step of the protection-disk scan that computes ground truth.
const TRUTH_STEP_M: f64 = 500.0;

/// The input sizes that distinguish one workload from another.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    /// Workload name as given on the command line.
    pub name: &'static str,
    /// Model localities (k-means clusters, one classifier each).
    pub localities: usize,
    /// Readings per channel in the set-up campaign.
    pub campaign_readings: usize,
    /// Crowd-sourced rows pre-loaded into the segment store in set-up.
    pub store_rows: usize,
    /// Device sites per category (vacant, occupied, near-contour).
    pub sites_per_kind: usize,
}

/// The workloads: the same three phases at two input sizes.
pub const PROFILES: [Profile; 2] = [
    Profile {
        name: "compact",
        localities: 4,
        campaign_readings: 500,
        store_rows: 4_000,
        sites_per_kind: 60,
    },
    Profile {
        name: "wide",
        localities: 12,
        campaign_readings: 800,
        store_rows: 12_000,
        sites_per_kind: 60,
    },
];

/// Looks a workload up by name.
pub fn profile(name: &str) -> Option<Profile> {
    PROFILES.iter().copied().find(|p| p.name == name)
}

/// What a device site is there to exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// No station decodable within the protection radius: fast, safe.
    Vacant,
    /// Well inside a station's contour: fast, not safe.
    Occupied,
    /// Within a few dB of the decodability threshold: the long
    /// convergence tail.
    NearContour,
}

/// A place a device senses from, with the simulator's answer for it.
#[derive(Debug, Clone, Copy)]
pub struct Site {
    pub location: Point,
    /// True channel power, `None` where no station reaches.
    pub true_rss: Option<f64>,
    /// Algorithm 1 over the true field: not safe when any point of the
    /// protection disk is decodable.
    pub truth: Safety,
    pub kind: SiteKind,
}

/// Inputs shared by every phase of one run.
pub struct Scenario {
    pub profile: Profile,
    pub world: World,
    pub channel: TvChannel,
    pub dataset: ChannelDataset,
    pub labeler: Labeler,
    pub constructor: ModelConstructor,
    pub model: WaldoModel,
    /// Device sites in visiting order.
    pub sites: Vec<Site>,
}

impl Scenario {
    /// Collects the workload's campaign, trains its model and draws the
    /// sites from `seed`.
    pub fn build(profile: Profile, seed: u64) -> Scenario {
        let world = WorldBuilder::new().seed(WORLD_SEED).build();
        let channel = TvChannel::new(CHANNEL).expect("valid channel");
        let labeler = Labeler::new();
        let campaign = CampaignBuilder::new(&world)
            .sensors(vec![SensorModel::rtl_sdr()])
            .readings_per_channel(profile.campaign_readings)
            .spacing_m(250.0)
            .seed(MODEL_SEED)
            .labeler(labeler)
            .collect();
        let dataset =
            campaign.dataset(SensorKind::RtlSdr, channel).expect("channel collected").clone();
        let constructor = ModelConstructor::new(
            WaldoConfig::default().localities(profile.localities).seed(MODEL_SEED),
        );
        let model = constructor.fit(&dataset).expect("campaign data trains");
        let sites = draw_sites(&world, channel, profile.sites_per_kind, seed);
        Scenario { profile, world, channel, dataset, labeler, constructor, model, sites }
    }

    /// Honest crowd-sourced readings: the campaign's own measurements,
    /// each re-reported from up to 60 m away, in a seeded order.
    pub fn crowd_readings(&self, count: usize, seed: u64) -> Vec<ReadingSample> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0063_726f_7764);
        let source = self.dataset.measurements();
        (0..count)
            .map(|_| {
                let m = &source[rng.gen_range(0..source.len())];
                let jitter = Point::new(rng.gen_range(-60.0..60.0), rng.gen_range(-60.0..60.0));
                let location = self
                    .world
                    .region()
                    .clamp(Point::new(m.location.x + jitter.x, m.location.y + jitter.y));
                ReadingSample::new(location, &m.observation)
            })
            .collect()
    }
}

impl Scenario {
    /// The `(location, rss)` pairs Algorithm 1 labels on a refit: the
    /// campaign's rows, then the uploads.
    pub fn label_points(&self, uploads: &[ReadingSample]) -> Vec<(Point, f64)> {
        let mut points: Vec<(Point, f64)> = self
            .dataset
            .measurements()
            .iter()
            .map(|m| (m.location, m.observation.rss_dbm))
            .collect();
        points.extend(uploads.iter().map(|s| (s.location, s.rss_dbm)));
        points
    }

    /// The refit's training set in the constructor's row layout, the way
    /// the store's refit engine builds it.
    pub fn training_set(&self, uploads: &[ReadingSample], labels: &[Safety]) -> Dataset {
        let set = self.constructor.config().feature_set();
        let mut rows: Vec<Vec<f64>> = self
            .dataset
            .measurements()
            .iter()
            .map(|m| ChannelDataset::feature_row(m, set))
            .collect();
        rows.extend(uploads.iter().map(|s| {
            let mut row = vec![s.location.x / 1000.0, s.location.y / 1000.0];
            row.extend(s.features.project(set));
            row
        }));
        let labels = labels.iter().map(|l| l.is_not_safe()).collect();
        Dataset::from_rows(rows, labels).expect("rows are fixed-width and finite")
    }

    /// The base model with `localities` retrained on the campaign plus
    /// `uploads`: a model that differs from the base in some localities.
    pub fn refit_with(&self, uploads: &[ReadingSample], localities: &[usize]) -> WaldoModel {
        let labels = self.labeler.label(&self.label_points(uploads));
        let set = self.training_set(uploads, &labels);
        self.constructor.refit_localities(&self.model, &set, localities).expect("refit trains")
    }
}

fn true_rss(world: &World, channel: TvChannel, p: Point) -> Option<f64> {
    let rss = world.field().rss_dbm(channel, p);
    rss.is_finite().then_some(rss)
}

/// Algorithm 1 applied to the true field on a grid over the protection
/// disk.
fn truth_at(world: &World, channel: TvChannel, p: Point) -> Safety {
    Safety::from_not_safe(max_rss_within(world, channel, p, RADIUS_M) >= THRESHOLD_DBM)
}

fn max_rss_within(world: &World, channel: TvChannel, p: Point, radius: f64) -> f64 {
    let steps = (radius / TRUTH_STEP_M).ceil() as i64;
    let mut max = f64::NEG_INFINITY;
    for i in -steps..=steps {
        for j in -steps..=steps {
            let (dx, dy) = (i as f64 * TRUTH_STEP_M, j as f64 * TRUTH_STEP_M);
            if dx * dx + dy * dy > radius * radius {
                continue;
            }
            let q = Point::new(p.x + dx, p.y + dy);
            if let Some(rss) = true_rss(world, channel, q) {
                max = max.max(rss);
            }
        }
    }
    max
}

/// Draws `per_kind` sites of each kind from seeded uniform candidates, then
/// interleaves them so any prefix of the visiting order holds all three.
fn draw_sites(world: &World, channel: TvChannel, per_kind: usize, seed: u64) -> Vec<Site> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7369_7465);
    let region = world.region();
    let mut by_kind: [Vec<Site>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut candidates = 0usize;
    while by_kind.iter().any(|v| v.len() < per_kind) {
        candidates += 1;
        assert!(candidates < 200_000, "the city has too few sites of some kind");
        let p = region.at_fraction(rng.gen::<f64>(), rng.gen::<f64>());
        let rss = true_rss(world, channel, p);
        let here = rss.unwrap_or(f64::NEG_INFINITY);
        let kind = if here >= THRESHOLD_DBM + 2.0 {
            SiteKind::Occupied
        } else if (here - THRESHOLD_DBM).abs() <= 3.0 {
            SiteKind::NearContour
        } else if here < THRESHOLD_DBM - 10.0 {
            SiteKind::Vacant
        } else {
            continue;
        };
        let slot = &mut by_kind[kind as usize];
        if slot.len() >= per_kind {
            continue;
        }
        // A vacant site keeps a 2 km margin beyond the protection radius.
        if kind == SiteKind::Vacant
            && max_rss_within(world, channel, p, RADIUS_M + 2_000.0) >= THRESHOLD_DBM - 3.0
        {
            continue;
        }
        let truth = truth_at(world, channel, p);
        slot.push(Site { location: p, true_rss: rss, truth, kind });
    }
    let [vacant, occupied, near] = by_kind;
    let mut sites = Vec::with_capacity(3 * per_kind);
    for i in 0..per_kind {
        sites.extend([vacant[i], occupied[i], near[i]]);
    }
    sites
}
