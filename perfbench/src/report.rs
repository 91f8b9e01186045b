//! The result of one run and its one-line JSON form.

/// Every per-layer metric, with its unit, in the order `BENCHMARK.json`
/// lists them. A traced run prints all of them on every workload; a layer
/// a workload never calls reads 0 (for example `prob.alg1_ms` on
/// `fit-indep`, or `router.hop_us.p50` on `serve-stream`).
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("topology.generate_ms", "ms"),
    ("sim.simulate_ms", "ms"),
    ("prob.targets_ms", "ms"),
    ("prob.alg1_ms", "ms"),
    ("prob.alg1_share", "frac"),
    ("prob.path_sets", "count"),
    ("prob.targets", "count"),
    ("prob.final_nullity", "count"),
    ("prob.assemble_ms", "ms"),
    ("prob.estimate_ms", "ms"),
    ("linalg.solve_ms", "ms"),
    ("linalg.identifiability_ms", "ms"),
    ("linalg.nnz", "count"),
    ("linalg.rows", "count"),
    ("linalg.cols", "count"),
    ("core.observe_us.p50", "us"),
    ("core.observe_us.p99", "us"),
    ("core.query_us.p50", "us"),
    ("core.refit.incremental", "count"),
    ("core.refit.rebuild", "count"),
    ("core.refit.full", "count"),
    ("core.rebuild_share", "frac"),
    ("serve.ingest_ms.p50", "ms"),
    ("serve.ingest_ms.p99", "ms"),
    ("serve.query_ms.p50", "ms"),
    ("serve.query_ms.p99", "ms"),
    ("serve.queue_depth.max", "count"),
    ("serve.busy", "count"),
    ("serve.timeouts", "count"),
    ("protocol.decode_us.p50", "us"),
    ("protocol.encode_us.p50", "us"),
    ("net.bytes_in_per_interval", "B"),
    ("net.lines_in", "count"),
    ("net.lines_out", "count"),
    ("net.wire_us.p50", "us"),
    ("router.hop_us.p50", "us"),
    ("router.hop_us.p99", "us"),
    ("client.update_ms.p50", "ms"),
    ("client.update_ms.p90", "ms"),
    ("client.read_ms.p50", "ms"),
    ("client.read_ms.p90", "ms"),
    ("gen.late_ms.p99", "ms"),
    ("tracing.overhead_frac", "frac"),
    ("host.calib_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("prob.self_ms", "ms"),
    ("linalg.self_ms", "ms"),
    ("protocol.self_ms", "ms"),
    ("net.self_ms", "ms"),
];

/// Per-layer values, all present and zero until set.
pub struct LayerMetrics {
    values: Vec<f64>,
}

impl LayerMetrics {
    pub fn zero() -> Self {
        Self {
            values: vec![0.0; LAYER_METRICS.len()],
        }
    }

    /// Sets a metric; panics on a name missing from [`LAYER_METRICS`].
    pub fn set(&mut self, name: &str, value: f64) {
        let i = LAYER_METRICS
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown layer metric {name}"));
        self.values[i] = value;
    }

    /// Sets `<layer>.self_ms` when the layer has a self-time metric.
    pub fn set_self(&mut self, layer: &str, value_ms: f64) {
        let name = format!("{layer}.self_ms");
        if LAYER_METRICS.iter().any(|(n, _)| *n == name) {
            self.set(&name, value_ms);
        }
    }
}

/// One run's outcome.
#[derive(Default)]
pub struct Report {
    pub checks_failed: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
    pub layers: Option<LayerMetrics>,
    pub notes: Vec<String>,
}

impl Report {
    /// Records a failed output check (the run is then not correct).
    pub fn fail(&mut self, why: String) {
        if !self.checks_failed.contains(&why) {
            self.checks_failed.push(why);
        }
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Share of attempted operations that did not fail.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed as f64 / self.attempted as f64
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json_line(&self) -> String {
        let entries: Vec<(String, f64, String)> = match &self.layers {
            Some(layers) => LAYER_METRICS
                .iter()
                .zip(&layers.values)
                .map(|((n, u), v)| (n.to_string(), *v, u.to_string()))
                .collect(),
            None => self.metrics.clone(),
        };
        let metrics: Vec<String> = entries
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", number(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks_failed.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives
/// (non-finite values, which JSON cannot carry, become 0).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Writes a traced run's spans to `.bench_out/spans-<workload>-<seed>.jsonl`
/// under the working directory, noting the path (or the failure) in the
/// report.
pub fn write_spans(report: &mut Report, tracer: &crate::trace::Tracer, workload: &str, seed: u64) {
    let path = std::path::PathBuf::from(format!(".bench_out/spans-{workload}-{seed}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => report.note(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => report.note(format!("could not write spans to {}: {e}", path.display())),
    }
}
