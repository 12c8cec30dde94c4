//! Per-layer accumulators of the traced mode.
//!
//! Every metric is measured from outside its layer: the benchmark times
//! its own calls into the layer's public functions, and reads counts off
//! the values those functions return. A time metric sums over every call
//! the traced passes make.

use std::collections::BTreeMap;
use std::time::Instant;

/// Named per-layer metrics with their units, printed in name order.
#[derive(Debug, Default)]
pub struct Layers {
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Layers {
    pub fn new() -> Layers {
        Layers::default()
    }

    /// Run `f`, adding its wall-clock seconds to metric `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.add(name, t0.elapsed().as_secs_f64(), "s");
        out
    }

    /// Add `value` to metric `name` (created at zero).
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics
            .entry(name.to_string())
            .or_insert((0.0, unit))
            .0 += value;
    }

    /// Set metric `name` to `value`.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    pub fn into_metrics(self) -> Vec<(String, f64, &'static str)> {
        self.metrics
            .into_iter()
            .map(|(name, (value, unit))| (name, value, unit))
            .collect()
    }
}

/// Seconds since `t0`.
pub fn since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}
