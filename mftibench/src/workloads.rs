//! The four workloads: seeded inputs, the configured fitter, and the
//! independent references each served model is checked against.
//!
//! Every input is generated here from the workload seed; the library
//! sees only the generated samples.

use std::ops::Range;

use mfti_core::{Mfti, OrderSelection};
use mfti_numeric::{CMatrix, Complex};
use mfti_sampling::generators::{PdnBuilder, RandomSystemBuilder};
use mfti_sampling::{FrequencyGrid, NoiseModel, SampleSet};
use mfti_statespace::{s_at_hz, DescriptorSystem, TransferFunction};

pub type BoxError = Box<dyn std::error::Error>;

pub const NAMES: [&str; 4] = [
    "pdn_noisy_fit",
    "multiport_clean_fit",
    "window_clean_stream",
    "window_noisy_stream",
];

/// Relative measurement noise of the noisy workloads (≈ 60 dB SNR).
const NOISE: f64 = 1e-3;

/// Points of the held-out dense check grid.
const DENSE_POINTS: usize = 400;

/// Relative distance below which a sample frequency counts as lying on
/// the dense check grid.
const HELD_OUT_GAP: f64 = 1e-9;

/// SplitMix64: derives the independent seeds of one workload (system,
/// noise, stream phase) from the workload seed.
pub fn derive_seed(seed: u64, purpose: u64) -> u64 {
    let mut z = seed
        .wrapping_add(purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generating system's response on a dense grid that fitting never
/// sees, and the error checks against it.
#[derive(Debug)]
pub struct Reference {
    grid_hz: Vec<f64>,
    pub s_pts: Vec<Complex>,
    truth: Vec<CMatrix>,
    truth_norm: Vec<f64>,
}

impl Reference {
    fn new(system: &dyn TransferFunction, grid_hz: Vec<f64>) -> Result<Self, BoxError> {
        let truth = system.frequency_response(&grid_hz)?;
        let truth_norm = truth.iter().map(CMatrix::norm_2).collect();
        let s_pts = grid_hz.iter().map(|&f| s_at_hz(f)).collect();
        Ok(Reference {
            grid_hz,
            s_pts,
            truth,
            truth_norm,
        })
    }

    /// RMS of `‖H − H_true‖₂ / ‖H_true‖₂` (the paper's ERR) over the
    /// held-out grid points inside the band the fitted samples span, for
    /// a model's response swept over the whole grid; `None` when fewer
    /// than `MIN_IN_BAND` grid points lie in that band.
    pub fn rms_rel_err(&self, response: &[CMatrix], fitted_hz: &[f64]) -> Option<f64> {
        const MIN_IN_BAND: usize = 4;
        assert_eq!(response.len(), self.truth.len(), "sweep length");
        let lo = fitted_hz.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = fitted_hz.iter().copied().fold(0.0, f64::max);
        let errs: Vec<f64> = (0..response.len())
            .filter(|&j| (lo..=hi).contains(&self.grid_hz[j]))
            .map(|j| (&response[j] - &self.truth[j]).norm_2() / self.truth_norm[j])
            .collect();
        (errs.len() >= MIN_IN_BAND)
            .then(|| (errs.iter().map(|e| e * e).sum::<f64>() / errs.len() as f64).sqrt())
    }

    /// Whether no frequency of `freqs_hz` lies on the check grid.
    pub fn held_out(&self, freqs_hz: &[f64]) -> bool {
        freqs_hz.iter().all(|&f| {
            let i = self.grid_hz.partition_point(|&g| g < f);
            [i.checked_sub(1), Some(i)]
                .into_iter()
                .flatten()
                .filter_map(|j| self.grid_hz.get(j))
                .all(|&g| (g - f).abs() > HELD_OUT_GAP * f)
        })
    }
}

/// Midpoints of `DENSE_POINTS` equal steps across the band, linear or
/// logarithmic.
fn dense_midpoints(lo: f64, hi: f64, log: bool) -> Vec<f64> {
    (0..DENSE_POINTS)
        .map(|j| {
            let u = (j as f64 + 0.5) / DENSE_POINTS as f64;
            if log {
                lo * (hi / lo).powf(u)
            } else {
                lo + (hi - lo) * u
            }
        })
        .collect()
}

/// What a served model must satisfy.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    /// Largest RMS relative error of any served model against the
    /// generating system on the held-out grid; `None` on the noisy
    /// stream, whose session serves a far-off model on a few appends
    /// of every run (README, "Findings").
    pub max_err: Option<f64>,
    /// Largest median of that error over the run's served models.
    pub median_err: f64,
    /// Error above which a served model counts as a miss
    /// (`quality.miss_share`). No check fails on it.
    pub miss_err: f64,
    /// Model order the fit must find (clean data with a known order).
    pub exact_order: Option<usize>,
    /// Largest RMS relative error at the fitted samples themselves
    /// (clean data must be interpolated).
    pub interp_tol: Option<f64>,
}

/// Generated instances per one-shot workload. The loop fits them in
/// turn, so a run's medians average over several systems and noise
/// draws instead of hanging on one.
pub const INSTANCES: u64 = 64;

/// One fitting problem: samples and the reference of their system.
#[derive(Debug)]
pub struct Case {
    pub samples: SampleSet,
    pub reference: Reference,
}

/// A one-shot workload: `INSTANCES` sample sets fitted in turn in a
/// closed loop.
#[derive(Debug)]
pub struct OneShot {
    pub cases: Vec<Case>,
    pub config: Mfti,
    pub selection: OrderSelection,
    pub expect: Expect,
    /// Tail percentile reported as `model_ms.tail` (README).
    pub tail_q: f64,
}

/// How a stream's sample frequencies arrive.
#[derive(Debug, Clone, Copy)]
enum Arrival {
    /// A golden-ratio sequence in log-frequency: every window spans
    /// the whole band evenly.
    Spread { phase: f64 },
    /// A swept analyzer: up and down the band in `SWEEP_STEPS` log
    /// steps per leg, starting at step `start`, so each window covers
    /// a narrow contiguous sub-band. The down leg sits half a step off
    /// the up leg, so no frequency repeats near the turns.
    Sweep { start: usize },
}

/// Log-frequency steps per leg of a swept stream.
const SWEEP_STEPS: usize = 480;

/// A sliding-window stream: one sample pair per append.
#[derive(Debug)]
pub struct Stream {
    system: DescriptorSystem<f64>,
    band: (f64, f64),
    arrival: Arrival,
    noise_seed: Option<u64>,
    pub capacity: usize,
    /// Pairs that fill the window (`capacity / 4`: two ports, full
    /// weights, four pencil rows per pair).
    pub fill_pairs: usize,
    pub config: Mfti,
    pub selection: OrderSelection,
    pub reference: Reference,
    pub expect: Expect,
    pub tail_q: f64,
}

impl Stream {
    /// Frequency of stream sample `k`.
    fn freq_hz(&self, k: usize) -> f64 {
        const GOLDEN_FRAC: f64 = 0.618_033_988_749_894_8;
        let u = match self.arrival {
            Arrival::Spread { phase } => (phase + k as f64 * GOLDEN_FRAC).fract(),
            Arrival::Sweep { start } => {
                let (x, p) = ((start + k) % (2 * SWEEP_STEPS), SWEEP_STEPS as f64);
                if x < SWEEP_STEPS {
                    (x as f64 + 0.25) / p
                } else {
                    ((2 * SWEEP_STEPS - x) as f64 - 0.25) / p
                }
            }
        };
        self.band.0 * (self.band.1 / self.band.0).powf(u)
    }

    /// First pair of set-up `rep` of `reps`: the set-ups start at even
    /// strides through one up-and-down sweep cycle, so their median
    /// does not hang on the sub-band where the seed starts.
    pub fn setup_start(&self, rep: usize, reps: usize) -> usize {
        rep * SWEEP_STEPS / reps
    }

    /// The `j`-th appended pair (samples `2j`, `2j + 1`).
    pub fn pair(&self, j: usize) -> Result<SampleSet, BoxError> {
        let grid = FrequencyGrid::from_points(vec![self.freq_hz(2 * j), self.freq_hz(2 * j + 1)])?;
        let clean = SampleSet::from_system(&self.system, &grid)?;
        Ok(match self.noise_seed {
            Some(seed) => {
                NoiseModel::additive_relative(NOISE).apply(&clean, derive_seed(seed, j as u64))
            }
            None => clean,
        })
    }
}

#[derive(Debug)]
pub enum Workload {
    OneShot(OneShot),
    Stream(Box<Stream>),
}

/// Builds workload `name` from `seed`; `None` for an unknown name.
/// One-shot workloads generate only the instances in `cases` (a
/// sub-range of `0..INSTANCES`); streams ignore it.
pub fn build(name: &str, seed: u64, cases: Range<u64>) -> Option<Result<Workload, BoxError>> {
    Some(match name {
        "pdn_noisy_fit" => pdn_noisy_fit(seed, cases).map(Workload::OneShot),
        "multiport_clean_fit" => multiport_clean_fit(seed, cases).map(Workload::OneShot),
        "window_clean_stream" => window_stream(seed, false).map(|s| Workload::Stream(Box::new(s))),
        "window_noisy_stream" => window_stream(seed, true).map(|s| Workload::Stream(Box::new(s))),
        _ => return None,
    })
}

/// 6-port PDNs, 20 resonance pairs (true order 40 + rank D = 46), 40
/// linear samples over 10 MHz – 1 GHz with 1e-3 relative noise; full
/// weights give K = 240, NoiseFloor selection.
fn pdn_noisy_fit(seed: u64, cases: Range<u64>) -> Result<OneShot, BoxError> {
    let (lo, hi) = (1e7, 1e9);
    let cases = cases
        .map(|i| -> Result<Case, BoxError> {
            let pdn = PdnBuilder::new(6)
                .resonance_pairs(20)
                .band(lo, hi)
                .seed(derive_seed(seed, 2 * i + 1))
                .build()?;
            let clean = SampleSet::from_system(&pdn, &FrequencyGrid::linear(lo, hi, 40)?)?;
            Ok(Case {
                samples: NoiseModel::additive_relative(NOISE)
                    .apply(&clean, derive_seed(seed, 2 * i + 2)),
                reference: Reference::new(&pdn, dense_midpoints(lo, hi, false))?,
            })
        })
        .collect::<Result<_, _>>()?;
    let selection = OrderSelection::NoiseFloor { factor: 5.0 };
    Ok(OneShot {
        cases,
        config: Mfti::new().order_selection(selection),
        selection,
        expect: Expect {
            max_err: Some(100.0 * NOISE),
            median_err: 10.0 * NOISE,
            miss_err: 30.0 * NOISE,
            exact_order: None,
            interp_tol: None,
        },
        tail_q: 0.8,
    })
}

/// Clean random 8-port systems of true order 48 (40 states + rank D =
/// 8), 40 log-spaced samples, K = 320; the default threshold selection
/// must find the true order.
fn multiport_clean_fit(seed: u64, cases: Range<u64>) -> Result<OneShot, BoxError> {
    let (lo, hi) = (1e7, 1e9);
    let cases = cases
        .map(|i| -> Result<Case, BoxError> {
            let sys = RandomSystemBuilder::new(40, 8, 8)
                .d_rank(8)
                .band(lo, hi)
                .seed(derive_seed(seed, i + 1))
                .build()?;
            Ok(Case {
                samples: SampleSet::from_system(&sys, &FrequencyGrid::log_space(lo, hi, 40)?)?,
                reference: Reference::new(&sys, dense_midpoints(lo, hi, true))?,
            })
        })
        .collect::<Result<_, _>>()?;
    let selection = OrderSelection::default();
    Ok(OneShot {
        cases,
        config: Mfti::new().order_selection(selection),
        selection,
        expect: Expect {
            max_err: Some(1e-8),
            median_err: 1e-8,
            miss_err: 1e-8,
            exact_order: Some(48),
            interp_tol: Some(1e-8),
        },
        tail_q: 0.85,
    })
}

/// Generator seed of the streams' system. The sweep of a served model
/// takes 0.35–0.41 ms or 0.59 ms depending on the system, so a system
/// drawn per seed made the streams' sweep median bimodal across seeds;
/// the workload seed drives the arrivals and the noise instead.
const STREAM_SYSTEM_SEED: u64 = 0x0571_2EA3;

/// Random 2-port system of true order 12 (10 states + rank D = 2)
/// streamed through `Sliding { capacity: 96 }`. Clean samples arrive
/// spread over the band, where every window recovers the system
/// exactly; noisy (1e-3) samples arrive from a swept analyzer, where
/// each window sees a narrow sub-band (README, "Workloads").
fn window_stream(seed: u64, noisy: bool) -> Result<Stream, BoxError> {
    let band = (1e6, 1e9);
    let capacity = 96;
    let system = RandomSystemBuilder::new(10, 2, 2)
        .d_rank(2)
        .band(band.0, band.1)
        .seed(STREAM_SYSTEM_SEED)
        .build()?;
    let phase = derive_seed(seed, 3);
    let (arrival, selection, expect) = if noisy {
        let arrival = Arrival::Sweep {
            start: (phase % (2 * SWEEP_STEPS as u64)) as usize,
        };
        // On a few appends per run the session serves a model far
        // from the system, by up to 0.35 (README, "Findings"); the
        // misses are counted, and the run's median must stay within
        // 10× the noise.
        let expect = Expect {
            max_err: None,
            median_err: 10.0 * NOISE,
            miss_err: 30.0 * NOISE,
            exact_order: None,
            interp_tol: None,
        };
        (arrival, OrderSelection::NoiseFloor { factor: 5.0 }, expect)
    } else {
        let arrival = Arrival::Spread {
            phase: (phase >> 11) as f64 / (1u64 << 53) as f64,
        };
        let expect = Expect {
            max_err: Some(1e-8),
            median_err: 1e-8,
            miss_err: 1e-8,
            exact_order: Some(12),
            interp_tol: Some(1e-8),
        };
        (arrival, OrderSelection::default(), expect)
    };
    Ok(Stream {
        reference: Reference::new(&system, dense_midpoints(band.0, band.1, true))?,
        system,
        band,
        arrival,
        noise_seed: noisy.then(|| derive_seed(seed, 2)),
        capacity,
        fill_pairs: capacity / 4,
        config: Mfti::new().order_selection(selection),
        selection,
        expect,
        tail_q: if noisy { 0.95 } else { 0.9 },
    })
}
