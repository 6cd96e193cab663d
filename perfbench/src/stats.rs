//! Order statistics and the result line.

use std::collections::BTreeMap;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, interpolating linearly
/// between the two nearest ranks; `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len().checked_sub(1)? as f64);
    let (lo, hi) = (
        sorted.get(pos.floor() as usize)?,
        sorted.get(pos.ceil() as usize)?,
    );
    Some(lo + (hi - lo) * pos.fract())
}

/// The median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Samples strictly above the `q`-quantile.
pub fn beyond(values: &[f64], q: f64) -> usize {
    quantile(values, q).map_or(0, |cut| values.iter().filter(|v| **v > cut).count())
}

/// Metrics by name, each with its unit, in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }

    /// Records `name` when a value exists.
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        if let Some(v) = value {
            self.set(name, v, unit);
        }
    }

    /// Prints one human-readable line per metric.
    pub fn print_table(&self) {
        for (name, (value, unit)) in &self.0 {
            println!("  {name:<28} {value:>14.6} {unit}");
        }
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\":true,\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            body.join(",")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}
