//! The benchmark's declaration, read from `BENCHMARK.json` at the repository
//! root: which workloads exist, which metrics each kind of run must report,
//! and the regression bound of every end-to-end metric.

use ebm_bench::json::{self, Json};
use std::path::Path;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline by which the metric may worsen; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// Metrics every untraced run reports.
    pub end_to_end: Vec<Declared>,
    /// Metrics every traced run reports.
    pub per_layer: Vec<Declared>,
    /// Declared measuring time of one run, seconds.
    pub run_seconds: u64,
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("BENCHMARK.json: missing `{key}`"))
}

fn string(obj: &Json, key: &str) -> Result<String, String> {
    field(obj, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a string"))
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<Declared>, String> {
    field(doc, key)?
        .as_arr()
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not an array"))?
        .iter()
        .map(|m| {
            Ok(Declared {
                name: string(m, "name")?,
                unit: string(m, "unit")?,
                better: match string(m, "better")?.as_str() {
                    "higher" => Better::Higher,
                    "lower" => Better::Lower,
                    other => return Err(format!("BENCHMARK.json: better = `{other}`")),
                },
                bound: m.get("bound").and_then(Json::as_num),
            })
        })
        .collect()
}

impl Spec {
    /// Parses the text of a `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or ill-typed field.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = field(&doc, "workloads")?
            .as_arr()
            .ok_or("BENCHMARK.json: `workloads` is not an array")?
            .iter()
            .map(|w| string(w, "name"))
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
            run_seconds: field(&doc, "run_seconds")?
                .as_u64()
                .ok_or("BENCHMARK.json: `run_seconds` is not a whole number")?,
        })
    }

    /// Reads and parses `<root>/BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// Returns a message when the file is unreadable or malformed.
    pub fn load(root: &Path) -> Result<Spec, String> {
        let path = root.join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Spec::parse(&text)
    }

    /// The declaration of metric `name`, end-to-end or per-layer.
    pub fn find(&self, name: &str) -> Option<&Declared> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|d| d.name == name)
    }
}
