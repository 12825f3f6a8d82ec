//! What one run reports: the result line the benchmark driver reads, and
//! the fuller report `perf run` collects and `perf compare` reads back.

use crate::json::Json;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::Summary;

pub struct Metric {
    pub name: &'static str,
    pub summary: Summary,
    /// What the number needs said next to it: a shape, a backend name, the
    /// percentile that had ten samples beyond it.
    pub note: Option<String>,
}

impl Metric {
    pub fn new(name: &'static str, summary: Summary) -> Metric {
        Metric {
            name,
            summary,
            note: None,
        }
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Metric {
        self.note = Some(note.into());
        self
    }
}

/// One workload, run once, traced or not.
pub struct WorkloadReport {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics of an untraced run, the per-layer metrics of a
    /// traced one.
    pub metrics: Vec<Metric>,
}

impl WorkloadReport {
    /// The last line of standard output: exactly the keys the driver reads.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            let value = Json::obj([
                ("value", Json::Num(m.summary.median)),
                ("unit", Json::str(unit_of(m.name))),
            ]);
            (m.name, value)
        });
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .compact()
    }

    /// The run as `perf run` stores it, with spread and sample counts, and
    /// `env`, the machine and settings it ran under.
    pub fn to_json(&self, env: Json) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let mut fields = vec![
                ("value", Json::Num(m.summary.median)),
                ("unit", Json::str(unit_of(m.name))),
            ];
            if let Some(e) = END_TO_END.iter().find(|e| e.name == m.name) {
                fields.push(("better", Json::str(e.better.as_str())));
                fields.push(("bound", Json::Num(e.bound)));
            }
            fields.extend([
                ("q1", Json::Num(m.summary.q1)),
                ("q3", Json::Num(m.summary.q3)),
                ("mad", Json::Num(m.summary.mad)),
                ("n", Json::Num(m.summary.n as f64)),
            ]);
            if let Some(note) = &m.note {
                fields.push(("note", Json::str(note.clone())));
            }
            (m.name, Json::obj(fields))
        });
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("traced", Json::Bool(self.traced)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("env", env),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The table a person reads, written to standard error.
    pub fn print_table(&self) {
        eprintln!(
            "{} ({}): attempted {}, failed {}",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed
        );
        for m in &self.metrics {
            eprintln!(
                "  {:<40} {:>14.4} {:<8} q1 {:.4} q3 {:.4} mad {:.4} n {}{}",
                m.name,
                m.summary.median,
                unit_of(m.name),
                m.summary.q1,
                m.summary.q3,
                m.summary.mad,
                m.summary.n,
                m.note
                    .as_ref()
                    .map_or(String::new(), |n| format!("  [{n}]"))
            );
        }
    }
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or_else(|| panic!("metric {name} is not in the spec tables"))
}

/// Joins the untraced and the traced run of each workload into the report
/// `perf compare` reads.
pub fn combine(runs: &[(Json, Json)]) -> Json {
    let count = |run: &Json, key: &str| run.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let workloads = runs.iter().map(|(plain, traced)| {
        let name = plain
            .get("workload")
            .and_then(Json::as_str)
            .expect("child report names its workload")
            .to_string();
        let part = |run: &Json, key| run.get(key).cloned().unwrap_or(Json::Obj(vec![]));
        let body = Json::obj([
            ("env", part(plain, "env")),
            (
                "attempted",
                Json::Num(count(plain, "attempted") + count(traced, "attempted")),
            ),
            (
                "failed",
                Json::Num(count(plain, "failed") + count(traced, "failed")),
            ),
            ("end_to_end", part(plain, "metrics")),
            ("per_layer", part(traced, "metrics")),
        ]);
        (name, body)
    });
    Json::obj([
        ("schema", Json::str("gld-perf/1")),
        ("workloads", Json::obj(workloads)),
    ])
}
