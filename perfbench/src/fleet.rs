//! `fleet_day` — the `repro fleet` mix through `run_fleet`: the
//! ensemble-inference workload.
//!
//! FLAML, CAML and AutoGluon tenants, fitted in set-up (with the fixed
//! [`DEPLOY_SEED`]; the workload seed drives traffic, request rows and
//! carbon curves), receive diurnal,
//! burst and flash-crowd traffic over three carbon regions (Germany,
//! Poland, Sweden, each on a seeded diurnal curve compressed to the
//! trace's length) under carbon-aware routing and elastic autoscaling,
//! with 2 host threads. One op is one served request.

use crate::layers::{since, Layers};
use crate::serve::{
    batch_lengths, check_latency, check_prediction, replay_batches, sample_indices, serving_data,
    DEPLOY_SEED,
};
use crate::{Round, Workload};
use green_automl_dataset::Dataset;
use green_automl_energy::{CarbonProfile, GridIntensity};
use green_automl_serve::{
    run_fleet, AutoscalePolicy, FleetConfig, FleetReport, FleetTrace, FleetTrafficConfig,
    RegionSpec, RouterPolicy, Shape, TenantSpec, TenantTraffic,
};
use green_automl_systems::{AutoGluon, AutoMlSystem, Caml, Flaml, RunSpec};
use std::time::Instant;

/// Requests per tenant, and each tenant's base rate.
const REQUESTS: usize = 100_000;
const RPS: f64 = 500.0;
const SLO_S: f64 = 0.05;
const MAX_REPLICAS: usize = 4;
const WORKERS: usize = 2;

pub struct FleetDay {
    seed: u64,
    tenants: Vec<TenantSpec>,
    pool: Dataset,
    trace: FleetTrace,
    cfg: FleetConfig,
}

/// A seeded diurnal carbon curve with its day compressed to `day_s`.
fn compressed_day(grid: GridIntensity, seed: u64, day_s: f64) -> CarbonProfile {
    let mut c = CarbonProfile::seeded(grid, seed);
    c.peak_s *= day_s / CarbonProfile::DAY_S;
    c.period_s = day_s;
    c
}

/// The compressed "day" every carbon curve and traffic shape spans.
fn day_s() -> f64 {
    REQUESTS as f64 / RPS
}

/// Tenant 0 follows a diurnal cycle, tenant 1 a sustained burst, tenant 2
/// a flash crowd.
fn traffic(seed: u64, pool_rows: usize) -> FleetTrace {
    let day = day_s();
    let shapes = [
        Shape::Diurnal {
            period_s: day,
            amplitude: 0.4,
            peak_s: 0.25 * day,
        },
        Shape::Burst {
            start_s: 0.45 * day,
            duration_s: 0.1 * day,
            factor: 3.0,
        },
        Shape::FlashCrowd {
            at_s: 0.7 * day,
            ramp_s: 0.05 * day,
            peak_factor: 6.0,
            decay_s: 0.08 * day,
        },
    ];
    FleetTrafficConfig {
        tenants: shapes
            .into_iter()
            .enumerate()
            .map(|(t, shape)| TenantTraffic {
                tenant: t as u32,
                rps: RPS,
                shapes: vec![shape],
                n_requests: REQUESTS,
                seed: seed ^ 0xf1ee7 ^ (t as u64) << 32,
            })
            .collect(),
    }
    .generate(pool_rows)
}

impl FleetDay {
    pub fn setup(seed: u64) -> FleetDay {
        let (train, pool) = serving_data();
        let spec = RunSpec::single_core(60.0, DEPLOY_SEED);
        let systems: [Box<dyn AutoMlSystem>; 3] = [
            Box::new(Flaml::default()),
            Box::new(Caml::default()),
            Box::new(AutoGluon::default()),
        ];
        let tenants = systems
            .iter()
            .map(|s| TenantSpec::new(s.id().as_str(), s.fit(&train, &spec).predictor, SLO_S))
            .collect();
        let trace = traffic(seed, pool.n_rows());
        let grids = [
            ("germany", GridIntensity::GERMANY),
            ("poland", GridIntensity::POLAND),
            ("sweden", GridIntensity::SWEDEN),
        ];
        let regions = grids
            .iter()
            .enumerate()
            .map(|(i, (name, grid))| {
                RegionSpec::new(name, compressed_day(*grid, seed ^ i as u64, day_s()), 1)
            })
            .collect();
        let cfg = FleetConfig {
            autoscale: AutoscalePolicy::elastic(1, MAX_REPLICAS),
            host_parallelism: WORKERS,
            ..FleetConfig::cpu_testbed(regions)
        }
        .with_router(RouterPolicy::CarbonAware {
            latency_slack_s: 0.5 * SLO_S,
        });
        FleetDay {
            seed,
            tenants,
            pool,
            trace,
            cfg,
        }
    }

    /// Each tenant's request indices and batch lengths under the
    /// documented per-tenant batching rule.
    fn tenant_batches(&self) -> Vec<(Vec<usize>, Vec<usize>)> {
        (0..self.tenants.len())
            .map(|t| {
                let reqs = self.trace.tenant_requests(t as u32);
                let arrivals: Vec<f64> = reqs
                    .iter()
                    .map(|&i| self.trace.requests[i].arrival_s)
                    .collect();
                let lens = batch_lengths(&arrivals, self.cfg.max_batch, self.cfg.max_delay_s);
                (reqs, lens)
            })
            .collect()
    }

    fn check(&self, report: &FleetReport) -> Result<(), String> {
        let n = self.trace.len();
        let answered: usize = report.tenants.iter().map(|t| t.n_requests).sum();
        let failed: usize = report.tenants.iter().map(|t| t.failed_requests).sum();
        if report.n_requests != n || answered != n || report.predictions.len() != n || failed != 0 {
            return Err(format!(
                "fleet_day: {answered} of {n} requests reported, {failed} failed"
            ));
        }
        for i in sample_indices(self.seed, n) {
            let r = &self.trace.requests[i];
            check_prediction(
                "fleet_day",
                &self.tenants[r.tenant as usize].predictor,
                &self.pool,
                r.row,
                report.predictions[i],
            )?;
        }
        let batches = self.tenant_batches();
        let rows: usize = batches.iter().flat_map(|(_, lens)| lens).sum();
        let count: usize = batches.iter().map(|(_, lens)| lens.len()).sum();
        let largest = batches
            .iter()
            .flat_map(|(_, lens)| lens)
            .max()
            .copied()
            .unwrap_or(0);
        if rows != n || count != report.n_batches || largest > self.cfg.max_batch {
            return Err(format!(
                "fleet_day: the batching rule gives {count} batches of {rows} rows (largest \
                 {largest}), the report {} batches",
                report.n_batches
            ));
        }
        for t in &report.tenants {
            check_latency("fleet_day", &t.name, &t.latency)?;
        }
        Ok(())
    }
}

impl Workload for FleetDay {
    fn round(&self) -> Result<Round, String> {
        let report = run_fleet(&self.tenants, &self.pool, &self.trace, &self.cfg);
        self.check(&report)?;
        Ok(Round {
            ops: self.trace.len(),
            failed: report.tenants.iter().map(|t| t.failed_requests).sum(),
        })
    }

    fn profile(&self, layers: &mut Layers) -> Result<Round, String> {
        let regenerated = layers.time("serve.traffic.generate_s", || {
            traffic(self.seed, self.pool.n_rows())
        });
        if regenerated != self.trace {
            return Err("fleet_day: traffic generation is not deterministic".into());
        }
        let cfg = FleetConfig {
            host_parallelism: 1,
            ..self.cfg.clone()
        };
        let t0 = Instant::now();
        let report = run_fleet(&self.tenants, &self.pool, &self.trace, &cfg);
        let run_s = since(t0);
        self.check(&report)?;

        // Every tenant's requested rows through its predictor, in the
        // batches the fleet formed.
        let mut predict_s = 0.0;
        for (t, (reqs, lens)) in self.tenant_batches().into_iter().enumerate() {
            let rows: Vec<usize> = reqs.iter().map(|&i| self.trace.requests[i].row).collect();
            let t0 = Instant::now();
            let preds = replay_batches(&self.tenants[t].predictor, &self.pool, &rows, &lens);
            predict_s += since(t0);
            if reqs
                .iter()
                .zip(&preds)
                .any(|(&i, &p)| report.predictions[i] != p)
            {
                return Err(format!(
                    "fleet_day: tenant {} replayed predictions differ from the served ones",
                    self.tenants[t].name
                ));
            }
        }
        layers.set("serve.fleet.run_s", run_s, "s");
        layers.set("serve.predict_s", predict_s, "s");
        layers.set("serve.fleet.dispatch_s", run_s - predict_s, "s");
        layers.set("serve.batches", report.n_batches as f64, "count");
        layers.set(
            "serve.cold_loads",
            report.regions.iter().map(|r| r.cold_loads).sum::<usize>() as f64,
            "count",
        );
        layers.set(
            "serve.autoscale_events",
            report.events.len() as f64,
            "count",
        );
        layers.set(
            "serve.sim_p99_s",
            report
                .tenants
                .iter()
                .map(|t| t.latency.p99_s)
                .fold(0.0, f64::max),
            "virtual_s",
        );
        layers.set("serve.sim_kwh", report.kwh(), "kWh");
        layers.set("serve.sim_kg_co2", report.kg_co2(), "kg");
        Ok(Round {
            ops: self.trace.len(),
            failed: report.tenants.iter().map(|t| t.failed_requests).sum(),
        })
    }
}
