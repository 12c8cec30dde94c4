//! `cluster_chaos` — many small cells on the simulated cluster: the
//! cell-overhead, checkpoint and chaos workload.
//!
//! All seven systems on 20 AMLB datasets (every other row of Table 2) at
//! the tiny materialisation profile, one 10 s budget (which admits four
//! systems) and 4 runs: 320 cells on 4 simulated hosts under the
//! host-level faults of `FaultPlan::cluster_chaos`, with per-host shard
//! checkpoints in a fresh directory. The checkpoint is then resumed to
//! completion. No two cells share data, so every eval-cache lookup
//! misses: a cache change must show no gain and no cost here. One op is
//! one grid cell of the first pass.
//!
//! The workload seed drives the fault plan: which hosts crash, straggle
//! or partition, and when. The cells themselves (data, searches, shard
//! placement) use the grid's protocol seed, and the plan's trial-level
//! faults are off: they change every search they hit, so with them the
//! compute of a pass would move with the seed. Every pass therefore does
//! the same compute. At 320 cells a worker host survives all of its
//! ~80 attempts with probability 0.96^80 ≈ 4%, so every seed sees a host
//! crash (retry and requeue) with near certainty. Whether a straggler is
//! speculated depends on the seed: the coordinator has no host to copy to
//! once every worker has crashed, so the check derives the expected
//! speculation count from which hosts survived rather than asking for one.

use crate::grid::{check_points, points_bits, PROTOCOL_SEED};
use crate::layers::{since, Layers};
use crate::{Round, Workload};
use green_automl_core::benchmark::BenchmarkOptions;
use green_automl_core::checkpoint::shard_path;
use green_automl_core::cluster::{run_grid_cluster, ClusterGridRun, ClusterOptions, HostStats};
use green_automl_core::fault::FaultPlan;
use green_automl_dataset::{amlb39, train_test_split, DatasetMeta, MaterializeOptions};
use green_automl_systems::{all_systems, AutoMlSystem, RunSpec};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::time::Instant;

const BUDGET_S: f64 = 10.0;
const RUNS: usize = 4;
const HOSTS: usize = 4;
const WORKERS: usize = 2;

pub struct ClusterChaos {
    systems: Vec<Box<dyn AutoMlSystem>>,
    datasets: Vec<DatasetMeta>,
    spec: RunSpec,
    /// Root of the checkpoint directories; each pass creates a fresh
    /// subdirectory and removes it when done.
    dir: PathBuf,
    passes: Cell<usize>,
}

impl ClusterChaos {
    pub fn setup(seed: u64, scratch: &Path) -> ClusterChaos {
        ClusterChaos {
            systems: all_systems(),
            datasets: amlb39().into_iter().step_by(2).collect(),
            spec: RunSpec::single_core(BUDGET_S, PROTOCOL_SEED).with_fault(FaultPlan {
                trial_crash_p: 0.0,
                trial_timeout_p: 0.0,
                trial_oom_p: 0.0,
                ..FaultPlan::cluster_chaos(seed ^ 0xc1a5)
            }),
            dir: scratch.join("cluster_chaos"),
            passes: Cell::new(0),
        }
    }

    fn opts(workers: usize) -> BenchmarkOptions {
        BenchmarkOptions {
            materialize: MaterializeOptions::tiny(),
            runs: RUNS,
            test_frac: 0.34,
            parallelism: workers,
            eval_cache: true,
        }
    }

    /// Cells per pass, derived from the budget floors: one per system
    /// whose floor admits the budget (budget-free systems included), per
    /// dataset and run.
    fn expected_cells(&self) -> usize {
        let per = self
            .systems
            .iter()
            .filter(|s| s.budget_free() || s.min_budget_s() <= BUDGET_S)
            .count();
        per * self.datasets.len() * RUNS
    }

    fn run(&self, workers: usize, checkpoint: &Path) -> Result<ClusterGridRun, String> {
        run_grid_cluster(
            &self.systems,
            &self.datasets,
            &[BUDGET_S],
            &self.spec,
            &Self::opts(workers),
            &ClusterOptions::uniform(HOSTS),
            Some(checkpoint),
        )
        .map_err(|e| format!("cluster_chaos: invalid spec: {e}"))
    }

    /// A fresh checkpoint path for the next pass.
    fn fresh_checkpoint(&self) -> Result<PathBuf, String> {
        let n = self.passes.get();
        self.passes.set(n + 1);
        let dir = self.dir.join(format!("pass-{n}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir.join("grid.ckpt"))
    }

    /// Run the grid checkpointed, then resume it; check both. Returns the
    /// first pass, the resume pass, their wall-clock seconds and the
    /// checkpoint's size in bytes.
    fn run_and_resume(
        &self,
        workers: usize,
    ) -> Result<(ClusterGridRun, ClusterGridRun, f64, f64, u64), String> {
        let ckpt = self.fresh_checkpoint()?;
        let t0 = Instant::now();
        let first = self.run(workers, &ckpt)?;
        let first_s = since(t0);
        let t0 = Instant::now();
        let resumed = self.run(workers, &ckpt)?;
        let resume_s = since(t0);
        let bytes = (0..HOSTS)
            .map(|h| std::fs::metadata(shard_path(&ckpt, h, HOSTS)).map_or(0, |m| m.len()))
            .sum();
        self.check(&first, &resumed)?;
        if let Some(dir) = ckpt.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok((first, resumed, first_s, resume_s, bytes))
    }

    fn check(&self, first: &ClusterGridRun, resumed: &ClusterGridRun) -> Result<(), String> {
        let grid = &first.grid;
        if let Some(f) = grid.failures.first() {
            return Err(format!(
                "cluster_chaos: {} cell(s) failed, first {}/{}: {}",
                grid.failures.len(),
                f.system,
                f.dataset,
                f.message
            ));
        }
        let cells = self.expected_cells();
        if grid.points.len() != cells {
            return Err(format!(
                "cluster_chaos: {} points, expected {cells}",
                grid.points.len()
            ));
        }
        check_points(&grid.points, "cluster_chaos")?;
        if resumed.grid.resumed_cells != cells || resumed.report.scheduled_cells != 0 {
            return Err(format!(
                "cluster_chaos: resume replayed {} of {cells} cells and rescheduled {}",
                resumed.grid.resumed_cells, resumed.report.scheduled_cells
            ));
        }
        if points_bits(&resumed.grid.points) != points_bits(&grid.points) {
            return Err("cluster_chaos: resumed points differ from the first pass".into());
        }
        let r = &first.report;
        if r.host_crashes == 0 || r.requeued_cells == 0 || r.stragglers == 0 {
            return Err(format!(
                "cluster_chaos: a host fault class did not fire: crashes {}, requeued {}, \
                 stragglers {}",
                r.host_crashes, r.requeued_cells, r.stragglers
            ));
        }
        // A crash loses one attempt and kills its host for good; the
        // coordinator (host 0) never crashes.
        let crashed = r.hosts.iter().filter(|h| h.crashed).count();
        let sum = |f: fn(&HostStats) -> usize| r.hosts.iter().map(f).sum::<usize>();
        if r.hosts[0].crashed
            || crashed != r.host_crashes
            || r.retried_cells != r.host_crashes
            || sum(|h| h.retried) != r.retried_cells
            || sum(|h| h.requeued) != r.requeued_cells
            || sum(|h| h.speculated) != r.speculated_cells
        {
            return Err(format!(
                "cluster_chaos: fault counters disagree: {crashed} hosts crashed (host 0: {}), \
                 report crashes {} retried {}; host sums retried {} requeued {} speculated {}, \
                 report requeued {} speculated {}",
                r.hosts[0].crashed,
                r.host_crashes,
                r.retried_cells,
                sum(|h| h.retried),
                sum(|h| h.requeued),
                sum(|h| h.speculated),
                r.requeued_cells,
                r.speculated_cells
            ));
        }
        // Every straggler is speculated on the next alive host in ring
        // order. A worker always has the coordinator, so only the
        // coordinator, once every worker has crashed, straggles without a
        // copy: while a worker survives the run, the counts are equal.
        let worker_survived = crashed < HOSTS - 1;
        if r.speculated_cells > r.stragglers
            || (worker_survived && r.speculated_cells != r.stragglers)
        {
            return Err(format!(
                "cluster_chaos: {} of {} stragglers speculated with {} of {} workers alive",
                r.speculated_cells,
                r.stragglers,
                HOSTS - 1 - crashed,
                HOSTS - 1
            ));
        }
        if r.wasted_j.is_nan() || r.wasted_j <= 0.0 {
            return Err(format!(
                "cluster_chaos: wasted_j {} is not positive",
                r.wasted_j
            ));
        }
        for h in &r.hosts {
            let parts = [h.busy_j, h.transfer_j, h.wasted_j, h.overhead_j, h.idle_j];
            if parts.iter().any(|p| !(p.is_finite() && *p >= 0.0)) {
                return Err(format!(
                    "cluster_chaos: host {} energy parts {parts:?}",
                    h.host
                ));
            }
        }
        let host_transfer: f64 = r.hosts.iter().map(|h| h.transfer_j).sum();
        let host_wasted: f64 = r.hosts.iter().map(|h| h.wasted_j).sum();
        if !close(host_transfer, r.transfer_j) || !close(host_wasted, r.wasted_j) {
            return Err(format!(
                "cluster_chaos: host transfer/wasted sums {host_transfer}/{host_wasted} J, \
                 report {}/{} J",
                r.transfer_j, r.wasted_j
            ));
        }
        Ok(())
    }
}

/// Equal up to float summation order.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

impl Workload for ClusterChaos {
    fn round(&self) -> Result<Round, String> {
        let (first, _, _, _, _) = self.run_and_resume(WORKERS)?;
        Ok(Round {
            ops: first.report.scheduled_cells,
            failed: first.grid.failures.len(),
        })
    }

    fn profile(&self, layers: &mut Layers) -> Result<Round, String> {
        let (first, resumed, compute_s, resume_s, bytes) = self.run_and_resume(1)?;
        let r = &first.report;
        layers.set("core.cluster.compute_s", compute_s, "s");
        layers.set("core.cluster.resume_s", resume_s, "s");
        layers.set("core.checkpoint.bytes", bytes as f64, "bytes");
        layers.set(
            "core.checkpoint.replayed_cells",
            resumed.grid.resumed_cells as f64,
            "count",
        );
        layers.set("core.cluster.retried", r.retried_cells as f64, "count");
        layers.set(
            "core.cluster.speculated",
            r.speculated_cells as f64,
            "count",
        );
        layers.set("core.cluster.requeued", r.requeued_cells as f64, "count");
        layers.set("core.cluster.makespan_vs", r.makespan_s, "virtual_s");
        layers.set("core.cluster.wasted_j", r.wasted_j, "J");
        layers.set("core.cluster.transfer_j", r.transfer_j, "J");

        // The dataset layer on this workload's inputs: one
        // materialisation per (dataset, run), one split per cell.
        let opts = Self::opts(1);
        let systems_per_dataset = self.expected_cells() / (self.datasets.len() * RUNS);
        for meta in &self.datasets {
            for run in 0..RUNS {
                // The grid's cell seed (see `core::benchmark`).
                let seed = self.spec.seed ^ (run as u64 * 0x9e37) ^ meta.openml_id as u64;
                let m_opts = MaterializeOptions {
                    seed,
                    ..opts.materialize
                };
                let ds = layers.time("dataset.materialize_s", || meta.materialize(&m_opts));
                for _ in 0..systems_per_dataset {
                    let split = layers.time("dataset.split_s", || {
                        train_test_split(&ds, opts.test_frac, seed ^ 0x66_34)
                    });
                    std::hint::black_box(split);
                }
            }
        }
        Ok(Round {
            ops: r.scheduled_cells,
            failed: first.grid.failures.len(),
        })
    }
}
