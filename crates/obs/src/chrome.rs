//! Chrome `trace_event` JSON exporter.
//!
//! Emits the JSON-object flavor of the [trace event format] so the output
//! loads directly in `chrome://tracing` and [Perfetto]. Span begin/end
//! pairs become `"B"`/`"E"` events (the viewers nest them by timestamp
//! within a track); instants become `"i"`. Timestamps are microseconds
//! with sub-µs precision kept as decimals, as the format expects.
//!
//! [trace event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [Perfetto]: https://ui.perfetto.dev

use crate::collector::{Event, Phase};
use crate::json;

fn phase_str(phase: Phase) -> &'static str {
    match phase {
        Phase::Begin => "B",
        Phase::End => "E",
        Phase::Instant => "i",
    }
}

/// Renders recorded events as a Chrome-trace JSON document.
pub(crate) fn export(events: &[Event]) -> String {
    let mut rows = Vec::with_capacity(events.len());
    for e in events {
        let ts_us = e.ts_ns as f64 / 1000.0;
        let mut row = format!(
            "{{\"name\":{},\"cat\":\"mrpf\",\"ph\":{},\"pid\":1,\"tid\":{},\"ts\":{:.3}",
            json::string(&e.name),
            json::string(phase_str(e.phase)),
            e.tid,
            ts_us
        );
        if e.phase == Phase::Instant {
            // Thread-scoped instant marks.
            row.push_str(",\"s\":\"t\"");
        }
        if let Some(parent) = e.parent {
            row.push_str(&format!(
                ",\"args\":{{\"parent\":{}}}",
                json::string(parent)
            ));
        }
        row.push('}');
        rows.push(row);
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"producer\":\"mrp-obs\"}}}}",
        rows.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, phase: Phase, ts_ns: u64, parent: Option<&'static str>) -> Event {
        Event {
            name: name.to_string(),
            phase,
            ts_ns,
            tid: 0,
            parent,
        }
    }

    #[test]
    fn escapes_specials() {
        let json = export(&[ev("a\"b\\c\nd\u{1}", Phase::Instant, 0, Some("p\"q"))]);
        assert!(json.contains(r#""name":"a\"b\\c\nd\u0001""#), "{json}");
        assert!(json.contains(r#""args":{"parent":"p\"q"}"#), "{json}");
    }

    #[test]
    fn export_shape() {
        let events = [
            ev("outer", Phase::Begin, 1_500, None),
            ev("mark", Phase::Instant, 2_000, Some("outer")),
            ev("outer", Phase::End, 3_000, None),
        ];
        let json = export(&events);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"B\""), "{json}");
        assert!(json.contains("\"ph\":\"E\""), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"args\":{\"parent\":\"outer\"}"), "{json}");
        assert!(json.ends_with("}"), "{json}");
    }

    #[test]
    fn empty_trace_is_still_a_document() {
        let json = export(&[]);
        assert!(json.contains("\"traceEvents\":[]"), "{json}");
    }
}
