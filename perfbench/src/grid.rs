//! `grid_nested` — a Fig. 3-style grid: the search, fit and kernel
//! workload.
//!
//! All seven systems on a wide and a narrow AMLB dataset (robert at 96
//! kept features, blood-transfusion) at the benchmark materialisation
//! profile, nested budgets 10/30/60 s, one run, the grid-wide eval cache
//! and 2 workers through `run_grid_checked`. The nested budgets repeat
//! each system's trial prefix, so about half of all eval-cache lookups
//! hit; cell times are heavy-tailed, so cell scheduling shows in `wall_s`
//! but not in `cpu_s`. One op is one grid cell.
//!
//! The grid's inputs do not depend on the workload seed: it always runs
//! the protocol seed [`PROTOCOL_SEED`]. Across seeds the searches
//! themselves change, and the grid's cost spreads (interquartile distance
//! over median) by 0.24, wider than any bound a regression check can use;
//! see the README.

use crate::layers::{since, Layers};
use crate::{cpu_seconds, Round, Workload};
use green_automl_core::benchmark::{BenchmarkOptions, BenchmarkPoint, GridRun};
use green_automl_core::run_grid_checked;
use green_automl_dataset::{amlb39, train_test_split, Dataset, DatasetMeta, MaterializeOptions};
use green_automl_energy::{CostTracker, StableHasher};
use green_automl_ml::kernel;
use green_automl_ml::{
    AttentionParams, EvalCache, ForestParams, GbParams, KnnParams, LogisticParams, Matrix,
    MlpParams, ModelSpec, Pipeline, PreprocSpec, SvmParams, TreeParams,
};
use green_automl_systems::{all_systems, AutoMlSystem, FitContext, RunSpec};
use std::cell::Cell;
use std::time::Instant;

const BUDGETS: [f64; 3] = [10.0, 30.0, 60.0];
/// The `repro` default seed.
pub const PROTOCOL_SEED: u64 = 0;
const WORKERS: usize = 2;
/// The grid's train/test split fraction and split-seed salt (the values
/// `core::benchmark` documents for every point).
const TEST_FRAC: f64 = 0.34;
const SPLIT_SALT: u64 = 0x66_34;

pub struct GridNested {
    systems: Vec<Box<dyn AutoMlSystem>>,
    datasets: Vec<DatasetMeta>,
    spec: RunSpec,
    materialize: MaterializeOptions,
    /// Bit fingerprint of the first round's points: every later round
    /// must return the same grid.
    first_bits: Cell<Option<u64>>,
}

/// One grid cell in the reference serial order.
struct GridCell<'a> {
    system: &'a dyn AutoMlSystem,
    /// Index into the grid's datasets.
    dataset: usize,
    /// `None` for a budget-free system, reported at every budget.
    budget_s: Option<f64>,
}

impl GridNested {
    pub fn setup() -> GridNested {
        let datasets = amlb39()
            .into_iter()
            .filter(|m| m.name == "robert" || m.name == "blood-transfusion-service-center")
            .collect();
        GridNested {
            systems: all_systems(),
            datasets,
            spec: RunSpec::single_core(BUDGETS[0], PROTOCOL_SEED),
            materialize: MaterializeOptions {
                max_features: 96,
                ..MaterializeOptions::benchmark()
            },
            first_bits: Cell::new(None),
        }
    }

    fn opts(&self, workers: usize) -> BenchmarkOptions {
        BenchmarkOptions {
            materialize: self.materialize,
            runs: 1,
            test_frac: TEST_FRAC,
            parallelism: workers,
            eval_cache: true,
        }
    }

    /// The cells, derived here from each system's budget floor and
    /// budget-free flag, in system → dataset → budget order.
    fn cells(&self) -> Vec<GridCell<'_>> {
        let mut cells = Vec::new();
        for system in &self.systems {
            for dataset in 0..self.datasets.len() {
                if system.budget_free() {
                    cells.push(GridCell {
                        system: system.as_ref(),
                        dataset,
                        budget_s: None,
                    });
                } else {
                    for b in BUDGETS.into_iter().filter(|&b| b >= system.min_budget_s()) {
                        cells.push(GridCell {
                            system: system.as_ref(),
                            dataset,
                            budget_s: Some(b),
                        });
                    }
                }
            }
        }
        cells
    }

    fn expected_points(&self) -> usize {
        self.cells()
            .iter()
            .map(|c| {
                if c.budget_s.is_some() {
                    1
                } else {
                    BUDGETS.len()
                }
            })
            .sum()
    }

    /// The seed the grid gives every cell of `meta` in run 0.
    fn cell_seed(&self, meta: &DatasetMeta) -> u64 {
        self.spec.seed ^ meta.openml_id as u64
    }

    fn run_grid(&self, workers: usize) -> Result<GridRun, String> {
        run_grid_checked(
            &self.systems,
            &self.datasets,
            &BUDGETS,
            &self.spec,
            &self.opts(workers),
            None,
        )
        .map_err(|e| format!("grid_nested: invalid spec: {e}"))
    }

    fn check(&self, run: &GridRun) -> Result<(), String> {
        if let Some(f) = run.failures.first() {
            return Err(format!(
                "grid_nested: {} cell(s) failed, first {}/{}: {}",
                run.failures.len(),
                f.system,
                f.dataset,
                f.message
            ));
        }
        let expected = self.expected_points();
        if run.points.len() != expected {
            return Err(format!(
                "grid_nested: {} points, expected {expected} from the budget floors",
                run.points.len()
            ));
        }
        check_points(&run.points, "grid_nested")?;
        let bits = points_bits(&run.points);
        match self.first_bits.get() {
            None => self.first_bits.set(Some(bits)),
            Some(first) if first != bits => {
                return Err("grid_nested: a repeated round returned different points".into())
            }
            Some(_) => {}
        }
        Ok(())
    }

    /// Serial recompute of every cell through `fit_with` + `predict`,
    /// timing each layer, and bitwise comparison with `reference`.
    fn recompute(&self, reference: &GridRun, layers: &mut Layers) -> Result<(), String> {
        let cache = EvalCache::new();
        let ctx = FitContext::with_cache(&cache);
        let data: Vec<Dataset> = self
            .datasets
            .iter()
            .map(|meta| {
                let m_opts = MaterializeOptions {
                    seed: self.cell_seed(meta),
                    ..self.materialize
                };
                layers.time("dataset.materialize_s", || meta.materialize(&m_opts))
            })
            .collect();

        let mut points = Vec::new();
        let (mut cell_sum, mut cell_max) = (0.0f64, 0.0f64);
        let (mut evaluations, mut trial_faults) = (0usize, 0usize);
        for cell in self.cells() {
            let t_cell = Instant::now();
            let meta = &self.datasets[cell.dataset];
            let seed = self.cell_seed(meta);
            let spec = RunSpec {
                seed,
                budget_s: cell.budget_s.unwrap_or(BUDGETS[0]),
                ..self.spec
            };
            let (train, test) = layers.time("dataset.split_s", || {
                train_test_split(&data[cell.dataset], TEST_FRAC, seed ^ SPLIT_SALT)
            });
            let name = cell.system.id().as_str().to_ascii_lowercase();
            let run = layers.time(&format!("automl.fit_s.{name}"), || {
                cell.system.fit_with(&train, &spec, &ctx)
            });
            let mut inf = CostTracker::new(spec.device, spec.cores);
            let pred = layers.time(&format!("automl.predict_s.{name}"), || {
                run.predictor.predict(&test, &mut inf)
            });
            let elapsed = since(t_cell);
            cell_sum += elapsed;
            cell_max = cell_max.max(elapsed);
            evaluations += run.n_evaluations;
            trial_faults += run.n_trial_faults;

            let inf_m = inf.measurement();
            let nominal_rows = test.nominal_rows().max(1.0);
            let point = BenchmarkPoint {
                system: cell.system.id(),
                dataset: meta.name.to_string(),
                budget_s: spec.budget_s,
                seed,
                balanced_accuracy: balanced_accuracy(&test.labels, &pred, test.n_classes),
                execution: run.execution,
                inference_kwh_per_row: inf_m.kwh() / nominal_rows,
                inference_s_per_row: inf_m.duration_s / nominal_rows,
                n_models: run.predictor.n_models(),
                n_evaluations: run.n_evaluations,
                n_trial_faults: run.n_trial_faults,
                wasted_j: run.wasted_j,
                trace: None,
            };
            match cell.budget_s {
                Some(_) => points.push(point),
                None => points.extend(BUDGETS.iter().map(|&b| BenchmarkPoint {
                    budget_s: b,
                    ..point.clone()
                })),
            }
        }
        if points.len() != reference.points.len() {
            return Err(format!(
                "grid_nested: serial recompute made {} points, the grid {}",
                points.len(),
                reference.points.len()
            ));
        }
        for (mine, theirs) in points.iter().zip(&reference.points) {
            if points_bits(std::slice::from_ref(mine)) != points_bits(std::slice::from_ref(theirs))
            {
                return Err(format!(
                    "grid_nested: serial recompute of {}/{}/b{} differs from the grid's point \
                     (accuracy {} vs {})",
                    mine.system,
                    mine.dataset,
                    mine.budget_s,
                    mine.balanced_accuracy,
                    theirs.balanced_accuracy
                ));
            }
        }

        let (hits, misses) = cache.stats();
        let lookups = hits + misses;
        layers.set("core.grid.cell_sum_s", cell_sum, "s");
        layers.set("core.grid.cell_max_s", cell_max, "s");
        layers.set("automl.evaluations", evaluations as f64, "count");
        layers.set("automl.trial_faults", trial_faults as f64, "count");
        layers.set("ml.evalcache.lookups", lookups as f64, "count");
        layers.set(
            "ml.evalcache.hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            "ratio",
        );
        layers.set("ml.evalcache.entries", cache.len() as f64, "count");

        self.profile_models(&data, layers);
        Ok(())
    }

    /// Fit and predict one default pipeline of every model family on the
    /// grid's datasets.
    fn profile_models(&self, data: &[Dataset], layers: &mut Layers) {
        let families = [
            ModelSpec::DecisionTree(TreeParams::default()),
            ModelSpec::RandomForest(ForestParams::default()),
            ModelSpec::ExtraTrees(ForestParams::default()),
            ModelSpec::GradientBoosting(GbParams::default()),
            ModelSpec::Knn(KnnParams::default()),
            ModelSpec::Logistic(LogisticParams::default()),
            ModelSpec::LinearSvm(SvmParams::default()),
            ModelSpec::GaussianNb,
            ModelSpec::Mlp(MlpParams::default()),
            ModelSpec::InContextAttention(AttentionParams::default()),
        ];
        for (meta, ds) in self.datasets.iter().zip(data) {
            let seed = self.cell_seed(meta);
            let (train, test) = train_test_split(ds, TEST_FRAC, seed ^ SPLIT_SALT);
            for model in &families {
                let family = model.family();
                let pipeline = Pipeline::new(vec![PreprocSpec::StandardScaler], model.clone());
                let mut tracker = CostTracker::new(self.spec.device, self.spec.cores);
                let fitted = layers.time(&format!("ml.fit_s.{family}"), || {
                    pipeline.fit(&train, &mut tracker, seed)
                });
                let pred = layers.time(&format!("ml.predict_s.{family}"), || {
                    fitted.predict(&test, &mut tracker)
                });
                std::hint::black_box(pred);
            }
        }

        // The attention score product at TabPFN's context cap:
        // (context × d_model) · (d_model × context).
        let params = AttentionParams::default();
        let (n, d) = (params.max_context, params.d_model);
        let fill = |rows: usize, cols: usize, salt: u64| {
            let data = (0..rows * cols)
                .map(|i| ((i as u64 ^ salt).wrapping_mul(0x9e37_79b9) % 1000) as f64 / 1000.0)
                .collect();
            Matrix::from_vec(data, rows, cols)
        };
        let (a, b) = (fill(n, d, 1), fill(d, n, 2));
        let mut out = Matrix::zeros(n, n);
        let reps = 20;
        let t0 = Instant::now();
        for _ in 0..reps {
            kernel::matmul(std::hint::black_box(&a), std::hint::black_box(&b), &mut out);
        }
        layers.set("ml.kernel.matmul_s", since(t0) / reps as f64, "s");
        std::hint::black_box(out);
    }
}

impl Workload for GridNested {
    fn round(&self) -> Result<Round, String> {
        let run = self.run_grid(WORKERS)?;
        self.check(&run)?;
        Ok(Round {
            ops: self.cells().len(),
            failed: run.failures.len(),
        })
    }

    fn profile(&self, layers: &mut Layers) -> Result<Round, String> {
        // The timed-phase shape once more: reference points and the
        // workers' utilisation.
        let c0 = cpu_seconds();
        let t0 = Instant::now();
        let reference = self.run_grid(WORKERS)?;
        let wall = since(t0);
        let cpu = cpu_seconds() - c0;
        self.check(&reference)?;
        layers.set(
            "core.grid.worker_util",
            cpu / (wall * WORKERS as f64),
            "ratio",
        );
        self.recompute(&reference, layers)?;
        Ok(Round {
            ops: 2 * self.cells().len(),
            failed: reference.failures.len(),
        })
    }
}

/// Balanced accuracy from the benchmark's own confusion counts: the mean,
/// over classes present in `truth`, of each class's recall.
fn balanced_accuracy(truth: &[u32], pred: &[u32], n_classes: usize) -> f64 {
    let mut support = vec![0usize; n_classes];
    let mut correct = vec![0usize; n_classes];
    for (&t, &p) in truth.iter().zip(pred) {
        support[t as usize] += 1;
        if t == p {
            correct[t as usize] += 1;
        }
    }
    let mut recall_sum = 0.0;
    let mut present = 0usize;
    for (&c, &s) in correct.iter().zip(&support) {
        if s > 0 {
            recall_sum += c as f64 / s as f64;
            present += 1;
        }
    }
    if present == 0 {
        0.0
    } else {
        recall_sum / present as f64
    }
}

/// Every accuracy in [0, 1]; every energy and duration finite and
/// positive.
pub fn check_points(points: &[BenchmarkPoint], workload: &str) -> Result<(), String> {
    for p in points {
        let positive = |v: f64| v.is_finite() && v > 0.0;
        let ok = (0.0..=1.0).contains(&p.balanced_accuracy)
            && positive(p.execution.energy.total_joules())
            && positive(p.execution.duration_s)
            && positive(p.inference_kwh_per_row)
            && positive(p.inference_s_per_row);
        if !ok {
            return Err(format!(
                "{workload}: point {}/{}/b{} out of range: accuracy {}, {} J, {} s, \
                 {} kWh/row, {} s/row",
                p.system,
                p.dataset,
                p.budget_s,
                p.balanced_accuracy,
                p.execution.energy.total_joules(),
                p.execution.duration_s,
                p.inference_kwh_per_row,
                p.inference_s_per_row
            ));
        }
    }
    Ok(())
}

/// Fingerprint of the points' scientific content, every float by its
/// bits.
pub fn points_bits(points: &[BenchmarkPoint]) -> u64 {
    let mut h = StableHasher::new(0x9e1d_b175);
    h.write_usize(points.len());
    for p in points {
        h.write_str(p.system.as_str());
        h.write_str(&p.dataset);
        h.write_f64(p.budget_s);
        h.write_u64(p.seed);
        h.write_f64(p.balanced_accuracy);
        h.write_f64(p.execution.energy.package_j);
        h.write_f64(p.execution.energy.dram_j);
        h.write_f64(p.execution.energy.gpu_j);
        h.write_f64(p.execution.duration_s);
        h.write_f64(p.inference_kwh_per_row);
        h.write_f64(p.inference_s_per_row);
        h.write_usize(p.n_models);
        h.write_usize(p.n_evaluations);
        h.write_usize(p.n_trial_faults);
        h.write_f64(p.wasted_j);
    }
    h.finish()
}
