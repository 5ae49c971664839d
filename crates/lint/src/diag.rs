//! Diagnostic codes, severities, and report rendering.

use std::fmt;

use mrp_obs::json;

/// How serious a diagnostic is.
///
/// `Error` means the netlist or RTL is wrong (or cannot be proven right);
/// `Warning` flags structure that is legal but wasteful or suspicious;
/// `Info` is advisory output that never fails a lint run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory only.
    Info,
    /// Legal but suspicious or wasteful.
    Warning,
    /// The design is wrong or unprovable.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Defines [`LintCode`] from one table: variant, `MRPnnn` string, default
/// severity, and one-line description. The single source keeps the code
/// string, severity map, description map, and [`LintCode::ALL`] listing
/// from drifting apart as codes are appended.
macro_rules! lint_codes {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $code:literal, $severity:ident, $desc:literal;
    )+) => {
        /// Stable diagnostic codes.
        ///
        /// Codes are grouped by pass: `MRP00x` structural invariants,
        /// `MRP01x` width inference, `MRP02x` equivalence, `MRP03x`
        /// depth/critical path, `MRP04x` pipeline/retiming. Codes are
        /// append-only: a released code never changes meaning, so CI
        /// filters and suppression lists stay valid across versions.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum LintCode {
            $( $(#[$doc])* $variant, )+
        }

        impl LintCode {
            /// Every code, in `MRPnnn` order (append-only).
            pub const ALL: &'static [LintCode] = &[ $( LintCode::$variant, )+ ];

            /// The stable `MRPnnn` code string.
            pub fn as_str(self) -> &'static str {
                match self { $( LintCode::$variant => $code, )+ }
            }

            /// The default severity of this code.
            pub fn severity(self) -> Severity {
                match self { $( LintCode::$variant => Severity::$severity, )+ }
            }

            /// One-line description of what the code flags.
            pub fn description(self) -> &'static str {
                match self { $( LintCode::$variant => $desc, )+ }
            }
        }
    };
}

lint_codes! {
    /// `MRP001` — an adder node is not reachable from any output.
    DeadNode = "MRP001", Warning,
        "adder node not reachable from any nonzero output";
    /// `MRP002` — a term references a node id outside the graph.
    UnknownNodeRef = "MRP002", Error,
        "operand or output references a node outside the graph";
    /// `MRP003` — an operand references the node itself or a later node
    /// (the node list is not in topological order / contains a cycle).
    NotTopological = "MRP003", Error,
        "operand reads the node itself or a later node";
    /// `MRP004` — an adder computes zero or a pure shift/negation of one
    /// of its own operands; the adder is free wiring in disguise.
    RedundantAdder = "MRP004", Warning,
        "adder computes zero or a free shift/negation of an operand";
    /// `MRP005` — two adder nodes compute the same constant (missed CSE).
    DuplicateNode = "MRP005", Warning,
        "two adders compute the same constant (missed CSE)";
    /// `MRP006` — a node's fanout exceeds the configured threshold.
    HighFanout = "MRP006", Info,
        "node fanout exceeds the configured threshold";
    /// `MRP007` — the graph registers no outputs.
    NoOutputs = "MRP007", Warning,
        "graph has adders but registers no nonzero outputs";
    /// `MRP010` — a declared wire/port width cannot hold the signal's
    /// worst-case settled value.
    WidthTruncation = "MRP010", Error,
        "declared width cannot hold the worst-case settled value";
    /// `MRP011` — the RTL's input port width disagrees with the width the
    /// netlist was analyzed at.
    InputWidthMismatch = "MRP011", Error,
        "RTL input width disagrees with the analyzed width";
    /// `MRP012` — a required width exceeds the 63-bit analysis range
    /// (`i64` value tracking, `mrp-vsim` simulation).
    WidthOverflow = "MRP012", Error,
        "required width exceeds the 63-bit analysis range";
    /// `MRP013` — the RTL does not structurally match the netlist
    /// (parse failure, missing node wire, output count mismatch).
    RtlShapeMismatch = "MRP013", Error,
        "RTL does not structurally match the netlist";
    /// `MRP020` — an output's symbolically evaluated constant differs from
    /// its registered expected coefficient.
    CoeffMismatch = "MRP020", Error,
        "output reconstructs a different constant than registered";
    /// `MRP021` — a node's structurally recomputed constant differs from
    /// the tracked value cache.
    TrackedValueMismatch = "MRP021", Error,
        "tracked value cache disagrees with the adder structure";
    /// `MRP022` — simulating the emitted RTL produced a wrong product.
    RtlValueMismatch = "MRP022", Error,
        "RTL simulation produced a wrong product";
    /// `MRP030` — a node's cached adder depth differs from the recomputed
    /// depth.
    DepthCacheMismatch = "MRP030", Error,
        "cached adder depth disagrees with the structure";
    /// `MRP031` — the recomputed critical path differs from the depth the
    /// optimizer reported.
    DepthMismatch = "MRP031", Error,
        "recomputed critical path disagrees with the reported depth";
    /// `MRP040` — a signal crosses a pipeline stage boundary without a
    /// register, so consumers would see the wrong cycle's value.
    UnregisteredCrossing = "MRP040", Error,
        "signal crosses a pipeline boundary without a register";
    /// `MRP041` — a stage assignment is illegal: an adder consumes a value
    /// from a later stage (needed before it exists), the input is off
    /// stage 0, or a stage lies beyond the latency.
    RetimingIllegal = "MRP041", Error,
        "stage assignment needs a value before it is produced";
    /// `MRP042` — a node's inferred width exceeds the declared growth
    /// bound (legal, but the datapath is wider than the design budgeted).
    WidthGrowthExceeded = "MRP042", Warning,
        "inferred width grows past the declared bound";
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One finding, with source-node provenance where available.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: LintCode,
    /// Severity (defaults to [`LintCode::severity`]).
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Index of the netlist node the finding anchors to, if any.
    pub node: Option<usize>,
    /// RTL signal or output label the finding anchors to, if any.
    pub signal: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic with the code's default severity.
    pub fn new(code: LintCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            message: message.into(),
            node: None,
            signal: None,
        }
    }

    /// Attaches node provenance.
    pub fn at_node(mut self, node: usize) -> Self {
        self.node = Some(node);
        self
    }

    /// Attaches an RTL signal / output label.
    pub fn at_signal(mut self, signal: impl Into<String>) -> Self {
        self.signal = Some(signal.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}", self.severity, self.code, self.message)?;
        if let Some(n) = self.node {
            write!(f, " (node {n})")?;
        }
        if let Some(s) = &self.signal {
            write!(f, " (signal `{s}`)")?;
        }
        Ok(())
    }
}

/// Summary statistics gathered while linting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LintStats {
    /// Total nodes including the input.
    pub nodes: usize,
    /// Adder nodes.
    pub adders: usize,
    /// Registered outputs.
    pub outputs: usize,
    /// Recomputed critical path in adder stages.
    pub max_depth: u32,
    /// Largest fanout over nodes.
    pub max_fanout: usize,
    /// Minimal internal wordlength (bits) that holds every node's settled
    /// value at the analyzed input width.
    pub min_safe_width: u32,
}

/// The result of a lint run: diagnostics plus summary statistics.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// Summary statistics.
    pub stats: LintStats,
}

impl LintReport {
    /// Appends a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Merges another report's diagnostics into this one; stats keep the
    /// element-wise maximum so the merged summary stays conservative.
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
        let s = &mut self.stats;
        let o = other.stats;
        s.nodes = s.nodes.max(o.nodes);
        s.adders = s.adders.max(o.adders);
        s.outputs = s.outputs.max(o.outputs);
        s.max_depth = s.max_depth.max(o.max_depth);
        s.max_fanout = s.max_fanout.max(o.max_fanout);
        s.min_safe_width = s.min_safe_width.max(o.min_safe_width);
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == s).count()
    }

    /// `true` when at least one finding is an error.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// `true` when the run produced no findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Findings with a given code.
    pub fn with_code(&self, code: LintCode) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// Renders the human-readable report.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let s = &self.stats;
        out.push_str(&format!(
            "lint: {} error(s), {} warning(s) — {} nodes ({} adders), \
             {} outputs, depth {}, max fanout {}, min safe width {}\n",
            self.error_count(),
            self.warning_count(),
            s.nodes,
            s.adders,
            s.outputs,
            s.max_depth,
            s.max_fanout,
            s.min_safe_width,
        ));
        out
    }

    /// Renders the report as a single JSON object (stable schema:
    /// `{"diagnostics": [...], "stats": {...}, "errors": n, "warnings": n}`).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":{},\"severity\":{},\"message\":{}",
                json::string(d.code.as_str()),
                json::string(&d.severity.to_string()),
                json::string(&d.message)
            ));
            if let Some(n) = d.node {
                out.push_str(&format!(",\"node\":{n}"));
            }
            if let Some(s) = &d.signal {
                out.push_str(&format!(",\"signal\":{}", json::string(s)));
            }
            out.push('}');
        }
        let s = &self.stats;
        out.push_str(&format!(
            "],\"stats\":{{\"nodes\":{},\"adders\":{},\"outputs\":{},\
             \"max_depth\":{},\"max_fanout\":{},\"min_safe_width\":{}}},\
             \"errors\":{},\"warnings\":{}}}",
            s.nodes,
            s.adders,
            s.outputs,
            s.max_depth,
            s.max_fanout,
            s.min_safe_width,
            self.error_count(),
            self.warning_count(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_strings() {
        assert_eq!(LintCode::DeadNode.as_str(), "MRP001");
        assert_eq!(LintCode::WidthTruncation.as_str(), "MRP010");
        assert_eq!(LintCode::CoeffMismatch.as_str(), "MRP020");
        assert_eq!(LintCode::DepthMismatch.as_str(), "MRP031");
        assert_eq!(LintCode::UnregisteredCrossing.as_str(), "MRP040");
        assert_eq!(LintCode::RetimingIllegal.as_str(), "MRP041");
        assert_eq!(LintCode::WidthGrowthExceeded.as_str(), "MRP042");
    }

    #[test]
    fn code_table_is_consistent() {
        // ALL is sorted by code string, strings are unique and MRPnnn.
        let strs: Vec<&str> = LintCode::ALL.iter().map(|c| c.as_str()).collect();
        let mut sorted = strs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(strs, sorted, "codes must be unique and in MRPnnn order");
        for c in LintCode::ALL {
            assert!(c.as_str().starts_with("MRP") && c.as_str().len() == 6);
            assert!(!c.description().is_empty());
        }
        assert_eq!(LintCode::ALL.len(), 19);
    }

    #[test]
    fn new_codes_have_expected_severities() {
        assert_eq!(LintCode::UnregisteredCrossing.severity(), Severity::Error);
        assert_eq!(LintCode::RetimingIllegal.severity(), Severity::Error);
        assert_eq!(LintCode::WidthGrowthExceeded.severity(), Severity::Warning);
    }

    #[test]
    fn report_counts_severities() {
        let mut r = LintReport::default();
        r.push(Diagnostic::new(LintCode::DeadNode, "a"));
        r.push(Diagnostic::new(LintCode::CoeffMismatch, "b"));
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(r.has_errors());
        assert!(!r.is_clean());
    }

    #[test]
    fn json_escapes_specials() {
        let mut r = LintReport::default();
        r.push(Diagnostic::new(LintCode::DeadNode, "a\"b\\c\nd").at_signal("s\"\t"));
        let j = r.render_json();
        assert!(j.contains(r#""message":"a\"b\\c\nd""#), "{j}");
        assert!(j.contains(r#""signal":"s\"\t""#), "{j}");
        assert!(!j.contains('\n') && !j.contains('\t'), "{j}");
    }

    #[test]
    fn json_render_is_wellformed_enough() {
        let mut r = LintReport::default();
        r.push(
            Diagnostic::new(LintCode::WidthTruncation, "wire too narrow")
                .at_node(3)
                .at_signal("n3"),
        );
        let j = r.render_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"code\":\"MRP010\""));
        assert!(j.contains("\"node\":3"));
        assert!(j.contains("\"signal\":\"n3\""));
        assert!(j.contains("\"errors\":1"));
    }

    #[test]
    fn merge_keeps_max_stats() {
        let mut a = LintReport {
            stats: LintStats {
                nodes: 4,
                min_safe_width: 20,
                ..LintStats::default()
            },
            ..LintReport::default()
        };
        let b = LintReport {
            stats: LintStats {
                nodes: 2,
                min_safe_width: 25,
                ..LintStats::default()
            },
            ..LintReport::default()
        };
        a.merge(b);
        assert_eq!(a.stats.nodes, 4);
        assert_eq!(a.stats.min_safe_width, 25);
    }
}
