//! Spans recorded by the benchmark around the public calls it makes, and
//! the program's own spans exported through `mrp-obs` in a traced run.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span: a public call (or a whole operation) made by the
/// benchmark.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Times every call it wraps; keeps the spans in memory only when
/// tracing, and writes them out when the run ends.
pub struct Recorder {
    tracing: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Slots of the spans open now, innermost last.
    open: Vec<usize>,
    op: u64,
}

/// An open span; hand it back to [`Recorder::end`].
#[must_use]
pub struct Open {
    slot: usize,
    start_ns: u64,
}

impl Recorder {
    pub fn new(tracing: bool) -> Recorder {
        Recorder {
            tracing,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn tracing(&self) -> bool {
        self.tracing
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans begun from now on belong to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let start_ns = self.now_ns();
        let slot = if self.tracing {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
                op: self.op,
            });
            self.spans.len() - 1
        } else {
            usize::MAX
        };
        self.open.push(slot);
        Open { slot, start_ns }
    }

    /// Closes `open` and returns its duration in milliseconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end_ns = self.now_ns();
        let top = self.open.pop().expect("span closed twice");
        assert_eq!(top, open.slot, "spans must close innermost first");
        if self.tracing {
            self.spans[open.slot].end_ns = end_ns;
        }
        (end_ns - open.start_ns) as f64 / 1e6
    }

    /// Runs `f` inside a span named `name`; returns its result and duration.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let out = f();
        let ms = self.end(open);
        (out, ms)
    }

    /// Summed duration of every span named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// The spans as a JSON array of
    /// `{"name","start_ns","end_ns","parent","op"}` objects.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.op
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}

/// Totals of the program's own spans, from an `mrp-obs` Chrome trace.
#[derive(Debug, Default)]
pub struct ProgramSpans {
    /// Summed duration per span name, ms.
    pub total_ms: BTreeMap<String, f64>,
    /// Summed self time per span name (minus directly nested spans), ms.
    pub self_ms: BTreeMap<String, f64>,
    /// Summed duration of the outermost spans of layers other than
    /// `resilience` nested inside a `synth` span: the time `synthesize`
    /// spent in other layers' calls, ms.
    pub inside_synth_foreign_ms: f64,
}

impl ProgramSpans {
    pub fn total(&self, name: &str) -> f64 {
        self.total_ms.get(name).copied().unwrap_or(0.0)
    }

    pub fn self_time(&self, name: &str) -> f64 {
        self.self_ms.get(name).copied().unwrap_or(0.0)
    }
}

/// The layer a program span belongs to, from its name.
pub fn layer_of(name: &str) -> &'static str {
    let prefix = name.split(['.', '[']).next().unwrap_or(name);
    match prefix {
        "synth" | "rung" | "degrade" => "resilience",
        "gate" if name.starts_with("gate.equiv.compiled") => "exec",
        "gate" if name == "gate.equiv" => "arch",
        "gate" => "resilience",
        "transform" | "pass" => "analysis",
        "pool" | "race" => "batch",
        "core" => "core",
        "cse" => "cse",
        "exact" => "exact",
        "exec" => "exec",
        "lint" => "lint",
        "batch" => "batch",
        _ => "other",
    }
}

/// The events of a Chrome trace document as `(key, raw value)` lists,
/// read in one linear pass: strings are unescaped only as far as
/// skipping them needs, nested objects (`args`) are skipped whole.
fn trace_events(doc: &str) -> Result<Vec<Vec<(String, String)>>, String> {
    let b = doc.as_bytes();
    let mut i = doc
        .find("\"traceEvents\"")
        .and_then(|at| doc[at..].find('[').map(|open| at + open + 1))
        .ok_or("trace: no traceEvents array")?;
    // End of the string starting at the quote `b[at]`.
    let string_end = |mut at: usize| -> Result<usize, String> {
        at += 1;
        while at < b.len() {
            match b[at] {
                b'\\' => at += 2,
                b'"' => return Ok(at + 1),
                _ => at += 1,
            }
        }
        Err("trace: unterminated string".to_string())
    };
    let mut events = Vec::new();
    loop {
        while i < b.len() && matches!(b[i], b' ' | b'\n' | b'\r' | b'\t' | b',') {
            i += 1;
        }
        match b.get(i) {
            Some(b']') => return Ok(events),
            Some(b'{') => i += 1,
            _ => return Err(format!("trace: unexpected byte at {i}")),
        }
        let mut fields = Vec::new();
        loop {
            while i < b.len() && matches!(b[i], b' ' | b'\n' | b'\r' | b'\t' | b',') {
                i += 1;
            }
            match b.get(i) {
                Some(b'}') => {
                    i += 1;
                    break;
                }
                Some(b'"') => {}
                _ => return Err(format!("trace: expected a key at {i}")),
            }
            let key_end = string_end(i)?;
            let key = doc[i + 1..key_end - 1].to_string();
            i = key_end;
            while i < b.len() && matches!(b[i], b' ' | b':') {
                i += 1;
            }
            let start = i;
            match b.get(i) {
                Some(b'"') => i = string_end(i)?,
                Some(b'{') => {
                    let mut depth = 0;
                    while i < b.len() {
                        match b[i] {
                            b'"' => {
                                i = string_end(i)?;
                                continue;
                            }
                            b'{' => depth += 1,
                            b'}' => {
                                depth -= 1;
                                if depth == 0 {
                                    i += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        i += 1;
                    }
                }
                _ => {
                    while i < b.len() && !matches!(b[i], b',' | b'}') {
                        i += 1;
                    }
                }
            }
            fields.push((key, doc[start..i].trim().to_string()));
        }
        events.push(fields);
    }
}

/// Reads the `B`/`E` events of an exported Chrome trace and totals the
/// spans per name. Spans nest per thread, so a stack per `tid` pairs them.
pub fn program_spans(chrome_trace: &str) -> Result<ProgramSpans, String> {
    struct Frame {
        name: String,
        ts_us: f64,
        children_us: f64,
    }
    let mut stacks: BTreeMap<i64, Vec<Frame>> = BTreeMap::new();
    let mut out = ProgramSpans::default();
    for e in trace_events(chrome_trace)? {
        let field = |k: &str| {
            e.iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.trim_matches('"'))
                .ok_or_else(|| format!("trace: event without `{k}`"))
        };
        let ph = field("ph")?;
        if ph != "B" && ph != "E" {
            continue;
        }
        let name = field("name")?.to_string();
        let tid: i64 = field("tid")?.parse().map_err(|_| "trace: bad `tid`")?;
        let ts_us: f64 = field("ts")?.parse().map_err(|_| "trace: bad `ts`")?;
        let stack = stacks.entry(tid).or_default();
        if ph == "B" {
            stack.push(Frame {
                name,
                ts_us,
                children_us: 0.0,
            });
            continue;
        }
        let frame = stack.pop().ok_or("trace: span ends without a begin")?;
        if frame.name != name {
            return Err(format!("trace: `{}` closed by `{name}`", frame.name));
        }
        let dur_us = ts_us - frame.ts_us;
        *out.total_ms.entry(name.clone()).or_default() += dur_us / 1e3;
        *out.self_ms.entry(name.clone()).or_default() += (dur_us - frame.children_us) / 1e3;
        if let Some(parent) = stack.last_mut() {
            parent.children_us += dur_us;
        }
        let in_synth = stack.iter().any(|f| f.name == "synth");
        let foreign = |n: &str| layer_of(n) != "resilience";
        if in_synth && foreign(&name) && !stack.iter().any(|f| foreign(&f.name)) {
            out.inside_synth_foreign_ms += dur_us / 1e3;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_nests_and_totals() {
        let mut rec = Recorder::new(true);
        rec.set_op(4);
        let op = rec.begin("op");
        let ((), _) = rec.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let total = rec.end(op);
        assert!(total >= rec.total_ms("inner") && rec.total_ms("inner") >= 2.0);
        assert_eq!(rec.total_ms("op"), total);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[1].op, 4);
        assert!(rec.to_json().contains("\"name\":\"inner\""));
    }

    #[test]
    fn untraced_recorder_keeps_nothing_but_still_times() {
        let mut rec = Recorder::new(false);
        let ((), ms) = rec.time("x", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(ms >= 1.0);
        assert_eq!(rec.total_ms("x"), 0.0);
    }

    #[test]
    fn program_spans_pair_per_thread() {
        let trace = r#"{"traceEvents":[
            {"name":"synth","ph":"B","tid":0,"ts":0.000,"args":{"parent":"a \"}\" b"}},
            {"name":"mark","ph":"i","tid":0,"ts":0.500,"s":"t"},
            {"name":"rung[mrp+cse]","ph":"B","tid":0,"ts":1.000},
            {"name":"core.optimize","ph":"B","tid":0,"ts":2.000},
            {"name":"core.graph","ph":"B","tid":0,"ts":3.000},
            {"name":"core.graph","ph":"E","tid":0,"ts":7.000},
            {"name":"core.optimize","ph":"E","tid":0,"ts":10.000},
            {"name":"gate.lint","ph":"B","tid":0,"ts":11.000},
            {"name":"lint.graph","ph":"B","tid":0,"ts":11.500},
            {"name":"lint.graph","ph":"E","tid":0,"ts":13.500},
            {"name":"gate.lint","ph":"E","tid":0,"ts":14.000},
            {"name":"rung[mrp+cse]","ph":"E","tid":0,"ts":15.000},
            {"name":"synth","ph":"E","tid":0,"ts":16.000},
            {"name":"core.graph","ph":"B","tid":1,"ts":5.000},
            {"name":"core.graph","ph":"E","tid":1,"ts":6.000}
        ]}"#;
        let s = program_spans(trace).unwrap();
        assert!((s.total("core.graph") - 0.005).abs() < 1e-12);
        assert!((s.self_time("core.optimize") - 0.004).abs() < 1e-12);
        // core.optimize (8 µs) and lint.graph (2 µs) are the foreign calls.
        assert!((s.inside_synth_foreign_ms - 0.010).abs() < 1e-12);
    }

    #[test]
    fn layers_follow_the_span_names() {
        assert_eq!(layer_of("core.wmsc"), "core");
        assert_eq!(layer_of("rung[exact]"), "resilience");
        assert_eq!(layer_of("gate.equiv.compiled"), "exec");
        assert_eq!(layer_of("gate.lint"), "resilience");
        assert_eq!(layer_of("transform.retime"), "analysis");
    }
}
