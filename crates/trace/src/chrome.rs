//! Chrome Trace Event format export.
//!
//! Emits the JSON Object format: `{"traceEvents": [...], "displayTimeUnit":
//! "ms"}`. Loadable in `chrome://tracing` and <https://ui.perfetto.dev>.
//!
//! Layout conventions used by this workspace:
//!
//! * `pid` = one simulated node (or logical process like the JobTracker);
//! * `tid` = one slot lane within it (CPU map slot, GPU, reduce slot,
//!   or the per-node "events" lane for instants);
//! * process/thread labels come first as `"M"` (metadata) events;
//! * spans are phase `"X"` (complete events, `ts` + `dur` in µs);
//! * instants are phase `"i"` with thread scope.
//!
//! The export is fully deterministic: events are emitted in recording
//! order, object keys in a fixed order, one event per line (the
//! [`crate::json`] table layout). Same simulation seed ⇒ byte-identical
//! file.

use crate::event::{ArgValue, EventKind, TraceEvent};
use crate::json::{self, Json};

/// The two `"M"` (metadata) events that label a process (`tid` is
/// `None`) or one of its lanes and pin its sort position — Perfetto would
/// otherwise order by name.
fn metadata(rows: &mut Vec<Json>, kind: &str, pid: u32, tid: Option<u32>, label: &str) {
    let sort_index = Json::from(tid.unwrap_or(pid));
    for (arg, value) in [("name", Json::from(label)), ("sort_index", sort_index)] {
        let mut e = Json::obj()
            .with("ph", "M")
            .with("name", format!("{kind}_{arg}"))
            .with("pid", pid);
        if let Some(tid) = tid {
            e = e.with("tid", tid);
        }
        rows.push(e.with("args", Json::obj().with(arg, value)));
    }
}

fn event(e: &TraceEvent) -> Json {
    let head = match e.kind {
        EventKind::Span { .. } => Json::obj().with("ph", "X"),
        EventKind::Instant => Json::obj().with("ph", "i").with("s", "t"),
    };
    let mut out = head
        .with("name", e.name.as_str())
        .with("cat", e.cat.as_str())
        .with("pid", e.pid)
        .with("tid", e.tid)
        .with("ts", e.ts_us);
    if let EventKind::Span { dur_us } = e.kind {
        out = out.with("dur", dur_us);
    }
    if !e.args.is_empty() {
        let args = e.args.iter().map(|(k, v)| {
            let v = match v {
                ArgValue::Str(s) => Json::from(s.as_str()),
                ArgValue::U64(u) => Json::U64(*u),
                ArgValue::F64(f) => Json::F64(*f),
            };
            (k.to_string(), v)
        });
        out = out.with("args", Json::Obj(args.collect()));
    }
    out
}

/// Serialize events plus process/thread labels as a Chrome trace JSON
/// document. Metadata events come first, then events in recording order.
pub fn to_chrome_json(
    events: &[TraceEvent],
    processes: &[(u32, String)],
    lanes: &[(u32, u32, String)],
) -> String {
    let mut rows = Vec::with_capacity(2 * (processes.len() + lanes.len()) + events.len());
    for (pid, label) in processes {
        metadata(&mut rows, "process", *pid, None, label);
    }
    for (pid, tid, label) in lanes {
        metadata(&mut rows, "thread", *pid, Some(*tid), label);
    }
    rows.extend(events.iter().map(event));
    json::write(
        &Json::obj()
            .with("traceEvents", Json::Arr(rows))
            .with("displayTimeUnit", "ms"),
    )
}

#[cfg(test)]
mod tests {
    use crate::event::Category;
    use crate::json::validate;
    use crate::Tracer;

    fn sample() -> Tracer {
        let t = Tracer::new();
        t.name_process(0, "node 0");
        t.name_lane(0, 0, "cpu slot 0");
        t.span(
            Category::Task,
            "map 3 a0",
            0,
            0,
            1.0,
            2.5,
            vec![("task", 3u32.into()), ("device", "gpu".into())],
        );
        t.instant(Category::Fault, "node crash", 0, 1, 2.0, vec![]);
        t
    }

    #[test]
    fn export_is_valid_json() {
        let json = sample().to_chrome_json();
        validate(&json).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"dur\":1500000"));
    }

    #[test]
    fn export_is_byte_deterministic() {
        assert_eq!(sample().to_chrome_json(), sample().to_chrome_json());
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = Tracer::new().to_chrome_json();
        validate(&json).unwrap();
    }
}
