//! The metric catalogue, the result line, and the check that both match
//! `BENCHMARK.json`.

use std::collections::BTreeMap;

use oic_engine::JsonValue;

use crate::workload::Workload;

/// End-to-end metrics `(name, unit)`: what a user of the system sees.
/// Printed by every untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("episodes_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("first_cell_p50_ms", "ms"),
    ("success_share", "share"),
    ("skip_rate", "share"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, grouped by crate. Printed by every
/// traced run (`--trace 1`).
pub const PER_LAYER: [(&str, &str); 32] = [
    // oic-scenarios
    ("scenarios.build_ms", "ms"),
    ("scenarios.build_lp_solves", "count"),
    ("cert.build_ms", "ms"),
    ("episode.setup_us", "us"),
    ("episode.setup_lp_solves", "count"),
    ("disturbance.next_ns", "ns"),
    // oic-core
    ("monitor.check_ns", "ns"),
    ("policy.decide_ns", "ns"),
    ("drl.infer_ns", "ns"),
    ("episode.tally_ns", "ns"),
    // oic-control / oic-lp
    ("controller.solve_ns_p50", "ns"),
    ("controller.solve_ns_p90", "ns"),
    ("mpc.solves", "count"),
    ("lp.solves", "count"),
    ("lp.pivots", "count"),
    ("lp.pivots_per_solve", "count"),
    ("lp.phase1_entries", "count"),
    ("lp.warm_hit_share", "share"),
    ("plant.step_ns", "ns"),
    // oic-engine
    ("engine.cell_cpu_s", "s"),
    ("engine.cell_max_ms", "ms"),
    ("engine.worker_busy_share", "share"),
    ("report.to_json_ms", "ms"),
    ("spec.hash_us", "us"),
    ("cache.get_us", "us"),
    ("cache.put_us", "us"),
    ("cache.hit_share", "share"),
    // oic-serve
    ("serve.response_bytes", "bytes"),
    // the split itself
    ("trace.overhead_share", "share"),
    ("trace.coverage_share", "share"),
    ("replay.overhead_share", "share"),
    ("replay.episodes", "count"),
];

/// The catalogue a run prints: end-to-end when untraced, per-layer when
/// traced.
pub fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Metric values gathered by one run, with an optional note (sample
/// count, source) per metric for the human-readable table.
#[derive(Debug, Default)]
pub struct Results {
    values: BTreeMap<&'static str, (f64, String)>,
}

impl Results {
    /// Records `name = value`.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.values.insert(name, (value, note.into()));
    }

    /// The table (one line per metric) and the final result line, in
    /// catalogue order.
    ///
    /// # Errors
    ///
    /// Names a catalogue metric the run did not record, a recorded
    /// metric outside the catalogue, or a non-finite value.
    pub fn render(
        &self,
        trace: bool,
        correct: bool,
        attempted: usize,
        failed: usize,
    ) -> Result<(String, String), String> {
        let catalogue = catalogue(trace);
        if let Some(extra) = self
            .values
            .keys()
            .find(|name| !catalogue.iter().any(|(n, _)| n == *name))
        {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        let mut table = String::new();
        let mut fields = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let (value, note) = self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            table.push_str(&format!("{name:<28} {value:>16.6} {unit:<6} {note}\n"));
            // `{:?}` is the shortest round-trip form (`3.0`, `1e20`): every
            // digit measured, and valid JSON.
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            fields.join(", ")
        );
        Ok((table, line))
    }
}

/// Checks that `BENCHMARK.json` declares exactly the workloads and the
/// metric names and units this benchmark prints.
///
/// # Errors
///
/// Names the first disagreement.
pub fn check_benchmark_json(text: &str) -> Result<(), String> {
    let doc = JsonValue::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |key: &str, field: &str| -> Result<Vec<String>, String> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: missing array {key:?}"))?
            .iter()
            .map(|entry| {
                entry
                    .get(field)
                    .and_then(JsonValue::as_str)
                    .map(String::from)
                    .ok_or_else(|| format!("BENCHMARK.json: {key} entry without {field:?}"))
            })
            .collect()
    };
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if names("workloads", "name")? != workloads {
        return Err(format!(
            "BENCHMARK.json workloads differ from {workloads:?}"
        ));
    }
    for (key, catalogue) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let declared: Vec<(String, String)> = names(key, "name")?
            .into_iter()
            .zip(names(key, "unit")?)
            .collect();
        let printed: Vec<(String, String)> = catalogue
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        if declared != printed {
            return Err(format!(
                "BENCHMARK.json {key} differs from the printed metrics: declared {declared:?}, printed {printed:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        check_benchmark_json(text).unwrap();
    }

    #[test]
    fn render_requires_every_metric_and_finite_values() {
        let mut results = Results::default();
        for (name, _) in END_TO_END {
            results.set(name, 1.25, "");
        }
        let (table, line) = results.render(false, true, 3, 0).unwrap();
        assert_eq!(table.lines().count(), END_TO_END.len());
        let doc = JsonValue::parse(&line).unwrap();
        assert_eq!(doc.get("attempted").and_then(JsonValue::as_usize), Some(3));
        let metrics = doc.get("metrics").and_then(JsonValue::as_object).unwrap();
        let keys: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(keys, expected);
        results.set("skip_rate", f64::NAN, "");
        assert!(results.render(false, true, 3, 0).is_err());
        assert!(Results::default().render(true, true, 1, 0).is_err());
    }

    #[test]
    fn numbers_keep_all_digits() {
        let mut results = Results::default();
        for (name, _) in END_TO_END {
            results.set(name, 0.1 + 0.2, "");
        }
        let (_, line) = results.render(false, true, 1, 0).unwrap();
        assert!(line.contains("{\"value\": 0.30000000000000004, \"unit\": \"s\"}"));
    }
}
