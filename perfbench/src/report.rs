//! The result of one benchmark run: readable lines, then one JSON line.

use crate::stats::median;

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run measured and whether every output checked out.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (jobs, plus the traced run's reproduction).
    pub attempted: usize,
    /// Operations that failed or did not verify.
    pub failed: usize,
    /// The metrics the JSON line carries, in print order.
    pub metrics: Vec<Metric>,
    /// Context printed beside the metrics (sample counts, diagnostics).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Count one operation and whether it verified; failures are printed.
    pub fn check(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = verdict {
            self.failed += 1;
            self.notes.push(format!("FAILED {what}: {reason}"));
        }
    }

    /// Print the readable report and, last, the JSON result line.
    pub fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for m in &self.metrics {
            println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A finite number in JSON syntax (non-finite values cannot occur in a
/// verified run; they print as 0 rather than as invalid JSON).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// The ten end-to-end figures every workload reports untraced.
pub struct EndToEnd {
    pub setup_s: f64,
    pub job_latencies_s: Vec<f64>,
    pub jobs_per_s: f64,
    pub cpu_per_job_s: f64,
    pub first_progress_s: Vec<f64>,
    pub peak_mem_bytes: f64,
    pub winner_score: f64,
    pub front_hv: f64,
    pub success_rate: f64,
}

impl EndToEnd {
    pub fn report(self, out: &mut Outcome) {
        let (tail, pct, beyond) = crate::stats::tail(&self.job_latencies_s);
        out.note(format!(
            "job_tail_s is p{pct} of {} jobs ({beyond} beyond it)",
            self.job_latencies_s.len()
        ));
        out.metric("setup_s", self.setup_s, "s");
        out.metric("job_p50_s", median(&self.job_latencies_s), "s");
        out.metric("job_tail_s", tail, "s");
        out.metric("jobs_per_s", self.jobs_per_s, "1/s");
        out.metric("cpu_per_job_s", self.cpu_per_job_s, "s");
        out.metric("first_progress_p50_s", median(&self.first_progress_s), "s");
        out.metric("peak_mem_mb", self.peak_mem_bytes / 1e6, "MB");
        out.metric("winner_score", self.winner_score, "score");
        out.metric("front_hv", self.front_hv, "hv");
        out.metric("success_rate", self.success_rate, "ratio");
    }
}

/// Every per-layer figure of a traced run. A figure a workload does not
/// exercise stays 0 (the serve-only `cli.*` figures on batch workloads,
/// the cache hit rate of batch jobs that each start a fresh session).
#[derive(Default)]
pub struct PerLayer {
    pub dataset_generate_s: f64,
    pub pipeline_source_s: f64,
    pub pipeline_prepare_s: f64,
    pub pipeline_init_assess_s: f64,
    pub pipeline_evolve_s: f64,
    pub pipeline_publish_s: f64,
    pub pipeline_cache_hit_rate: f64,
    pub core_generation_s: f64,
    pub core_evals_full: f64,
    pub core_evals_incremental: f64,
    pub privacy_audit_s: f64,
    pub cli_first_event_s: f64,
    pub cli_events_per_job: f64,
    pub cli_wire_bytes_per_job: f64,
    pub cli_decode_s: f64,
    pub host_steal_frac: f64,
    pub trace_overhead_ratio: f64,
}

impl PerLayer {
    pub fn report(self, layers: &crate::layers::LayerFigures, out: &mut Outcome) {
        out.metric("dataset.generate_s", self.dataset_generate_s, "s");
        out.metric("pipeline.source_s", self.pipeline_source_s, "s");
        out.metric("pipeline.prepare_s", self.pipeline_prepare_s, "s");
        out.metric("pipeline.init_assess_s", self.pipeline_init_assess_s, "s");
        out.metric("pipeline.evolve_s", self.pipeline_evolve_s, "s");
        out.metric("pipeline.publish_s", self.pipeline_publish_s, "s");
        out.metric(
            "pipeline.cache_hit_rate",
            self.pipeline_cache_hit_rate,
            "ratio",
        );
        out.metric("sdc.mask_s", layers.sdc_mask_s, "s");
        out.metric("metrics.prepare_s", layers.metrics_prepare_s, "s");
        out.metric("metrics.assess_s", layers.metrics_assess_s, "s");
        out.metric(
            "metrics.reassess_cell_s",
            layers.metrics_reassess_cell_s,
            "s",
        );
        out.metric(
            "metrics.reassess_segment_s",
            layers.metrics_reassess_segment_s,
            "s",
        );
        out.metric(
            "metrics.prepared_bytes",
            layers.metrics_prepared_bytes,
            "bytes",
        );
        out.metric("metrics.state_bytes", layers.metrics_state_bytes, "bytes");
        out.metric("core.init_eval_s", layers.core_init_eval_s, "s");
        out.metric("core.init_speedup", layers.core_init_speedup, "ratio");
        out.metric("core.generation_s", self.core_generation_s, "s");
        out.metric("core.evals_full", self.core_evals_full, "count");
        out.metric(
            "core.evals_incremental",
            self.core_evals_incremental,
            "count",
        );
        out.metric("privacy.audit_s", self.privacy_audit_s, "s");
        out.metric("cli.first_event_s", self.cli_first_event_s, "s");
        out.metric("cli.events_per_job", self.cli_events_per_job, "count");
        out.metric(
            "cli.wire_bytes_per_job",
            self.cli_wire_bytes_per_job,
            "bytes",
        );
        out.metric("cli.decode_s", self.cli_decode_s, "s");
        out.metric("host.steal_frac", self.host_steal_frac, "ratio");
        out.metric("host.nproc", crate::host::nproc() as f64, "count");
        out.metric("trace.overhead_ratio", self.trace_overhead_ratio, "ratio");
    }
}
