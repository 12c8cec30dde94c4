//! `serve_single` — one light model behind `serve::scheduler::serve`: the
//! batch-formation and serial-dispatch workload.
//!
//! FLAML, fitted in set-up on the serving dataset, serves a sequence of
//! open-loop Poisson traces seeded by the workload seed on 4 simulated replicas with 2 host
//! threads. One op is one served request. Also home to the pieces both
//! serving workloads share: the serving dataset, the documented batching
//! rule, and the output checks.

use crate::layers::{since, Layers};
use crate::{Round, Workload};
use green_automl_dataset::{amlb39, train_test_split, Dataset, MaterializeOptions};
use green_automl_energy::{CostTracker, Device, SplitMix64};
use green_automl_serve::{serve, LatencyStats, ServeConfig, ServingReport, TrafficConfig};
use green_automl_systems::{AutoMlSystem, Flaml, Predictor, RunSpec};
use std::collections::BTreeMap;
use std::time::Instant;

/// Traces per round, and requests per trace.
const TRACES: usize = 4;
const REQUESTS: usize = 1_000_000;
const RPS: f64 = 500.0;
const REPLICAS: usize = 4;
const WORKERS: usize = 2;
/// Requests per round whose served prediction is checked against a
/// direct `Predictor::predict` call.
pub const SAMPLE: usize = 64;

/// The seed the served models are fitted with. The models are the
/// deployment under test, not its input: the workload seed drives the
/// traffic. Fitting them per seed would let the model family (and so the
/// cost of every request) change with the seed.
pub const DEPLOY_SEED: u64 = 0;

/// The registry dataset both serving workloads train on and draw request
/// rows from, split 66/34 like every grid point.
pub fn serving_data() -> (Dataset, Dataset) {
    let seed = DEPLOY_SEED;
    let meta = amlb39()
        .into_iter()
        .find(|m| m.name == "blood-transfusion-service-center")
        .expect("registry holds blood-transfusion");
    let ds = meta.materialize(&MaterializeOptions {
        seed,
        ..MaterializeOptions::benchmark()
    });
    train_test_split(&ds, 0.34, seed ^ 0x66_34)
}

/// The scheduler's documented batching rule, recomputed here: consecutive
/// requests coalesce until the batch holds `max_batch` rows or
/// `max_delay_s` has passed since its first arrival. Returns each batch's
/// length.
pub fn batch_lengths(arrivals: &[f64], max_batch: usize, max_delay_s: f64) -> Vec<usize> {
    let mut lens = Vec::new();
    let mut first = 0;
    while first < arrivals.len() {
        let deadline = arrivals[first] + max_delay_s;
        let mut len = 1;
        while len < max_batch && first + len < arrivals.len() && arrivals[first + len] <= deadline {
            len += 1;
        }
        lens.push(len);
        first += len;
    }
    lens
}

/// Predict `rows` of `pool` in batches of `lens` through `predict_batch`,
/// the call a serving replica makes.
pub fn replay_batches(
    predictor: &Predictor,
    pool: &Dataset,
    rows: &[usize],
    lens: &[usize],
) -> Vec<u32> {
    let mut preds = Vec::with_capacity(rows.len());
    let mut first = 0;
    for &len in lens {
        let mut ds = pool.take_rows(&rows[first..first + len]);
        ds.row_scale = 1.0;
        let mut tracker = CostTracker::new(Device::xeon_gold_6132(), 1);
        preds.extend(predictor.predict_batch(&ds, &mut tracker));
        first += len;
    }
    preds
}

/// `SAMPLE` seeded request indices below `n`.
pub fn sample_indices(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5a3_91e);
    (0..SAMPLE).map(|_| rng.gen_range(0..n)).collect()
}

/// The served prediction for `row` equals a direct one-row
/// `Predictor::predict` call.
pub fn check_prediction(
    workload: &str,
    predictor: &Predictor,
    pool: &Dataset,
    row: usize,
    served: u32,
) -> Result<(), String> {
    let mut tracker = CostTracker::new(Device::xeon_gold_6132(), 1);
    let direct = predictor.predict(&pool.take_rows(&[row]), &mut tracker)[0];
    if direct != served {
        return Err(format!(
            "{workload}: row {row} served class {served}, direct predict {direct}"
        ));
    }
    Ok(())
}

/// p50 ≤ p99 ≤ max, all finite.
pub fn check_latency(workload: &str, who: &str, l: &LatencyStats) -> Result<(), String> {
    if !(l.p50_s.is_finite() && l.p50_s <= l.p99_s && l.p99_s <= l.max_s && l.max_s.is_finite()) {
        return Err(format!(
            "{workload}: {who} latency p50 {} p99 {} max {}",
            l.p50_s, l.p99_s, l.max_s
        ));
    }
    Ok(())
}

pub struct ServeSingle {
    seed: u64,
    predictor: Predictor,
    pool: Dataset,
    traces: Vec<green_automl_serve::TrafficTrace>,
    cfg: ServeConfig,
}

impl ServeSingle {
    pub fn setup(seed: u64) -> ServeSingle {
        let (train, pool) = serving_data();
        let predictor = Flaml::default()
            .fit(&train, &RunSpec::single_core(60.0, DEPLOY_SEED))
            .predictor;
        let traces = generate(seed, pool.n_rows());
        ServeSingle {
            seed,
            predictor,
            pool,
            traces,
            cfg: ServeConfig {
                host_parallelism: WORKERS,
                ..ServeConfig::cpu_testbed(REPLICAS)
            },
        }
    }

    fn check(&self, k: usize, report: &ServingReport) -> Result<(), String> {
        let trace = &self.traces[k];
        let n = trace.len();
        if report.n_requests != n
            || report.predictions.len() != n
            || report.shed_requests != 0
            || report.failed_requests != 0
        {
            return Err(format!(
                "serve_single: trace {k}: {} of {n} requests answered, {} shed, {} failed",
                report.predictions.len(),
                report.shed_requests,
                report.failed_requests
            ));
        }
        for i in sample_indices(self.seed ^ k as u64, n) {
            check_prediction(
                "serve_single",
                &self.predictor,
                &self.pool,
                trace.requests[i].row,
                report.predictions[i],
            )?;
        }
        let rows: usize = report
            .batch_sizes
            .iter()
            .map(|(size, count)| size * count)
            .sum();
        let batches: usize = report.batch_sizes.values().sum();
        let largest = report.batch_sizes.keys().max().copied().unwrap_or(0);
        if rows != n || batches != report.n_batches || largest > self.cfg.max_batch {
            return Err(format!(
                "serve_single: trace {k}: batch histogram holds {rows} rows in {batches} \
                 batches (report {} batches), largest {largest} > max {}",
                report.n_batches, self.cfg.max_batch
            ));
        }
        check_latency("serve_single", &format!("trace {k}"), &report.latency)
    }
}

fn generate(seed: u64, pool_rows: usize) -> Vec<green_automl_serve::TrafficTrace> {
    (0..TRACES)
        .map(|k| {
            TrafficConfig {
                rps: RPS,
                n_requests: REQUESTS,
                seed: seed ^ 0x5e7e ^ (k as u64) << 32,
            }
            .generate(pool_rows)
        })
        .collect()
}

impl Workload for ServeSingle {
    fn round(&self) -> Result<Round, String> {
        let mut round = Round::default();
        for (k, trace) in self.traces.iter().enumerate() {
            let report = serve(&self.predictor, &self.pool, trace, &self.cfg);
            self.check(k, &report)?;
            round.ops += trace.len();
            round.failed += report.shed_requests + report.failed_requests;
        }
        Ok(round)
    }

    fn profile(&self, layers: &mut Layers) -> Result<Round, String> {
        let regenerated = layers.time("serve.traffic.generate_s", || {
            generate(self.seed, self.pool.n_rows())
        });
        if regenerated != self.traces {
            return Err("serve_single: traffic generation is not deterministic".into());
        }
        let cfg = ServeConfig {
            host_parallelism: 1,
            ..self.cfg
        };
        let mut round = Round::default();
        let (mut serve_s, mut predict_s) = (0.0, 0.0);
        let (mut requests, mut batches) = (0usize, 0usize);
        for (k, trace) in self.traces.iter().enumerate() {
            let t0 = Instant::now();
            let report = serve(&self.predictor, &self.pool, trace, &cfg);
            serve_s += since(t0);
            self.check(k, &report)?;

            let arrivals: Vec<f64> = trace.requests.iter().map(|r| r.arrival_s).collect();
            let rows: Vec<usize> = trace.requests.iter().map(|r| r.row).collect();
            let lens = batch_lengths(&arrivals, cfg.max_batch, cfg.max_delay_s);
            let mut hist = BTreeMap::new();
            for &len in &lens {
                *hist.entry(len).or_insert(0usize) += 1;
            }
            if hist != report.batch_sizes {
                return Err(format!(
                    "serve_single: trace {k}: the batching rule gives {} batches, the report {}",
                    lens.len(),
                    report.n_batches
                ));
            }
            let t0 = Instant::now();
            let preds = replay_batches(&self.predictor, &self.pool, &rows, &lens);
            predict_s += since(t0);
            if preds != report.predictions {
                return Err(format!(
                    "serve_single: trace {k}: replayed predictions differ from the served ones"
                ));
            }
            requests += trace.len();
            batches += report.n_batches;
            round.ops += trace.len();
            round.failed += report.shed_requests + report.failed_requests;
        }
        layers.set("serve.scheduler.serve_s", serve_s, "s");
        layers.set("serve.scheduler.dispatch_s", serve_s - predict_s, "s");
        layers.set("serve.mean_batch", requests as f64 / batches as f64, "rows");
        Ok(round)
    }
}
