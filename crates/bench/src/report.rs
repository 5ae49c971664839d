//! Machine-readable bench output: `BENCH_*.json` files at the repo root.
//!
//! The figure/table binaries historically printed human tables only, so
//! nothing accumulated a perf/quality trajectory across commits. Each
//! binary now also serializes its headline numbers through a
//! [`BenchReport`] — a tiny ordered key/value JSON builder (the workspace
//! builds offline, so no serde) — written as `BENCH_<name>.json` at the
//! workspace root next to `Cargo.toml`.

use std::io;
use std::path::{Path, PathBuf};

use mrp_obs::json;

/// Ordered JSON-object builder for one bench run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    name: String,
    fields: Vec<(String, String)>,
}

impl BenchReport {
    /// Starts a report for the bench binary `name` (e.g. `summary`).
    pub fn new(name: &str) -> Self {
        let mut r = BenchReport {
            name: name.to_string(),
            fields: Vec::new(),
        };
        r.push_raw("bench", json::string(name));
        r
    }

    fn push_raw(&mut self, key: &str, raw: String) {
        self.fields.push((key.to_string(), raw));
    }

    /// Adds a string field.
    pub fn str_field(&mut self, key: &str, value: &str) -> &mut Self {
        self.push_raw(key, json::string(value));
        self
    }

    /// Adds an integer field.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.push_raw(key, value.to_string());
        self
    }

    /// Adds a float field (non-finite values become `null`).
    pub fn float(&mut self, key: &str, value: f64) -> &mut Self {
        self.push_raw(key, json::number(value));
        self
    }

    /// Adds a field whose value is pre-rendered JSON (an array or nested
    /// object the typed helpers cannot express). The caller is
    /// responsible for `raw` being valid JSON.
    pub fn raw_field(&mut self, key: &str, raw: String) -> &mut Self {
        self.push_raw(key, raw);
        self
    }

    /// Adds a nested object of float fields.
    pub fn float_map(&mut self, key: &str, entries: &[(&str, f64)]) -> &mut Self {
        let body: Vec<String> = entries
            .iter()
            .map(|(k, v)| format!("{}:{}", json::string(k), json::number(*v)))
            .collect();
        self.push_raw(key, format!("{{{}}}", body.join(",")));
        self
    }

    /// Renders the report as a JSON object.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}:{v}", json::string(k)))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// The output path: `BENCH_<name>.json` at the workspace root.
    pub fn default_path(&self) -> PathBuf {
        workspace_root().join(format!("BENCH_{}.json", self.name))
    }

    /// Writes the report to [`BenchReport::default_path`] and returns the
    /// path written.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`io::Error`] when the file cannot be
    /// written.
    pub fn write(&self) -> io::Result<PathBuf> {
        let path = self.default_path();
        std::fs::write(&path, self.render())?;
        Ok(path)
    }

    /// Writes the report, printing the destination (or a loud warning on
    /// failure — a bench run's numbers should never die silently).
    pub fn write_and_announce(&self) {
        match self.write() {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!(
                "WARNING: could not write {}: {e}",
                self.default_path().display()
            ),
        }
    }
}

/// The workspace root: two levels up from this crate's manifest
/// (`crates/bench` → repo root).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a workspace root two levels up")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_ordered_json() {
        let mut r = BenchReport::new("demo");
        r.int("cells", 48)
            .float("ratio", 0.5)
            .float("bad", f64::NAN)
            .str_field("note", "a\"b")
            .float_map("claims", &[("x", 1.25), ("y", f64::INFINITY)])
            .raw_field("rows", "[{\"a\":1}]".to_string());
        let json = r.render();
        assert_eq!(
            json,
            "{\"bench\":\"demo\",\"cells\":48,\"ratio\":0.5,\"bad\":null,\
             \"note\":\"a\\\"b\",\"claims\":{\"x\":1.25,\"y\":null},\
             \"rows\":[{\"a\":1}]}"
        );
    }

    #[test]
    fn default_path_is_at_workspace_root() {
        let r = BenchReport::new("summary");
        let path = r.default_path();
        assert!(path.ends_with("BENCH_summary.json"));
        assert!(path.parent().unwrap().join("Cargo.toml").exists());
    }
}
