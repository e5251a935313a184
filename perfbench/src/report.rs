//! What one invocation reports: the metric tables `BENCHMARK.json`
//! declares, the run's tallies, and the result line.

use acs_errors::json::{object, Value};
use std::collections::HashMap;

/// End-to-end metrics of the result line (`--trace 0`), every workload.
/// The other end-to-end figures (`p99_ms`, `max_rate_rps`, per-class
/// medians, ...) are printed on the lines before it: their spread across
/// seeds on a two-processor host is wider than any bound that could
/// gate them.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("p50_ms", "ms"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics (`--trace 1`), every workload. A layer a workload
/// does not reach reads 0 there.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("repro.table1_ms", "ms"),
    ("repro.fig1a_ms", "ms"),
    ("repro.fig1b_ms", "ms"),
    ("repro.fig2_ms", "ms"),
    ("repro.table2_ms", "ms"),
    ("repro.fig5_ms", "ms"),
    ("repro.fig6_ms", "ms"),
    ("repro.fig7_ms", "ms"),
    ("repro.table4_ms", "ms"),
    ("repro.fig8_ms", "ms"),
    ("repro.fig9_ms", "ms"),
    ("repro.fig10_ms", "ms"),
    ("repro.fig11_ms", "ms"),
    ("repro.fig12_ms", "ms"),
    ("core.optimize_oct2023_ms", "ms"),
    ("dse.paper_points_per_s", "1/s"),
    ("dse.eval_point_us", "us"),
    ("dse.lattice_cell_hit_ratio", "ratio"),
    ("dse.grid_points_per_s", "1/s"),
    ("sim.plan_us", "us"),
    ("sim.phase_us", "us"),
    ("sim.trace_us", "us"),
    ("sim.serving_us", "us"),
    ("sim.stepcache_hit_ratio", "ratio"),
    ("whatif.engine_ms", "ms"),
    ("whatif.variant_us", "us"),
    ("whatif.pinned_share", "ratio"),
    ("json.parse_us_per_kb", "us/KiB"),
    ("json.encode_us_per_kb", "us/KiB"),
    ("cache.screen.hit_ratio", "ratio"),
    ("cache.screen.evictions", "count"),
    ("cache.simulate.hit_ratio", "ratio"),
    ("cache.simulate.evictions", "count"),
    ("cache.whatif.hit_ratio", "ratio"),
    ("cache.whatif.evictions", "count"),
    ("cache.raw.hit_ratio", "ratio"),
    ("http.parse_us", "us"),
    ("handlers.devices_us", "us"),
    ("handlers.screen_us", "us"),
    ("handlers.simulate_us", "us"),
    ("handlers.grid_us", "us"),
    ("handlers.whatif_us", "us"),
    ("handlers.devices_residual_us", "us"),
    ("handlers.screen_residual_us", "us"),
    ("handlers.simulate_residual_ms", "ms"),
    ("handlers.grid_residual_us", "us"),
    ("handlers.whatif_residual_ms", "ms"),
    ("serve.transport_devices_us", "us"),
    ("serve.transport_screen_us", "us"),
    ("serve.transport_simulate_us", "us"),
    ("serve.transport_whatif_us", "us"),
    ("serve.reactor_events_per_req", "count"),
    ("serve.shed_share", "ratio"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.offered_rps", "1/s"),
    ("bench.achieved_rps", "1/s"),
    ("bench.trace_overhead_pct", "%"),
];

/// The outcome of one invocation.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Measured values by metric name. `None` marks a metric whose
    /// source the program no longer reports (a removed layer): it is
    /// left out of the result, not reported as zero. A name missing from
    /// the map is a layer this workload does not reach, reported as 0.
    pub values: HashMap<&'static str, Option<f64>>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    #[must_use]
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: Option<f64>) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record a failed output check.
    pub fn wrong(&mut self, what: String) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {what}"));
    }

    /// The result line over `table`, and the names left out as absent.
    #[must_use]
    pub fn result_line(
        &self,
        table: &[(&'static str, &'static str)],
    ) -> (String, Vec<&'static str>) {
        let mut metrics = Vec::new();
        let mut absent = Vec::new();
        for &(name, unit) in table {
            match self.values.get(name) {
                Some(None) => absent.push(name),
                Some(Some(v)) if v.is_finite() => metrics.push((name, *v, unit)),
                Some(Some(_)) => absent.push(name),
                None => metrics.push((name, 0.0, unit)),
            }
        }
        let metrics = metrics
            .into_iter()
            .map(|(name, v, unit)| {
                let value = object(vec![
                    ("value", Value::Number(v)),
                    ("unit", Value::String(unit.to_owned())),
                ]);
                (name, value)
            })
            .collect();
        let line = object(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Number(self.attempted as f64)),
            ("failed", Value::Number(self.failed as f64)),
            ("metrics", object(metrics)),
        ])
        .to_json();
        (line, absent)
    }
}

/// A counter of the global telemetry registry; absent if the program
/// never registered it.
#[must_use]
pub fn registry_counter(name: &str) -> Option<u64> {
    acs_telemetry::global()
        .counter_values()
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
}

/// The median of a global-registry histogram; absent if unregistered or
/// empty.
#[must_use]
pub fn registry_p50(name: &str) -> Option<f64> {
    acs_telemetry::global()
        .histogram_snapshots()
        .into_iter()
        .find(|(n, s)| n == name && s.count > 0)
        .map(|(_, s)| s.p50())
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_errors::json::parse;

    #[test]
    fn result_line_zeroes_unreached_and_drops_absent_layers() {
        let mut r = Report::new();
        r.attempted = 4;
        r.set("setup_s", Some(0.5));
        r.set("p50_ms", None);
        let (line, absent) = r.result_line(&[("setup_s", "s"), ("p50_ms", "ms"), ("p99_ms", "ms")]);
        let v = parse(&line).unwrap();
        assert_eq!(absent, vec!["p50_ms"]);
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(0.5)
        );
        assert_eq!(
            m.get("p99_ms").unwrap().get("value").unwrap().as_f64(),
            Some(0.0)
        );
        assert!(m.get("p50_ms").is_none());
        assert_eq!(v.get("attempted").unwrap().as_u64(), Some(4));
    }

    /// `BENCHMARK.json` declares exactly the metrics this code reports.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).unwrap().as_str().unwrap().to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(&END_TO_END));
        assert_eq!(names("per_layer"), table(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap().to_owned())
            .collect();
        let ours: Vec<String> = crate::inputs::Workload::ALL
            .iter()
            .map(|w| w.name().to_owned())
            .collect();
        assert_eq!(workloads, ours);
    }
}
