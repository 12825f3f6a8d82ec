//! The flight recorder: a bounded record of the process's last moments.
//!
//! Span events (per-thread rings, [`mod@crate::span`]) and log events (the log
//! ring, [`crate::log`]) are merged, sorted by timestamp, and written as
//! JSON-lines:
//!
//! ```text
//! {"kind":"flight","reason":"panic","events":412,"t_ns":91282312}
//! {"kind":"span","t_ns":1201,"dur_ns":83,"name":"req.parse","conn":2,"req":7}
//! {"kind":"log","t_ns":1410,"level":"info","target":"serviced","msg":"..."}
//! ```
//!
//! Dumps go to the path configured by [`set_dump_path`] (or the
//! `GLD_FLIGHT_DUMP` environment variable), falling back to stderr.
//! [`install_panic_hook`] chains a dump in front of the existing panic
//! hook, so a crashing `gld-serviced` leaves a server-side timeline for
//! chaos-test postmortems.

use crate::{log, now_ns, span};
use std::io::Write;
use std::sync::{Mutex, OnceLock};

fn dump_path() -> &'static Mutex<Option<String>> {
    static PATH: OnceLock<Mutex<Option<String>>> = OnceLock::new();
    PATH.get_or_init(|| Mutex::new(std::env::var("GLD_FLIGHT_DUMP").ok()))
}

/// Routes future dumps to `path` (overriding `GLD_FLIGHT_DUMP`); `None`
/// falls back to stderr.
pub fn set_dump_path(path: Option<String>) {
    *dump_path().lock().unwrap_or_else(|e| e.into_inner()) = path;
}

/// Renders the current flight record (header line + every span and log
/// event in timestamp order) as JSON-lines.
pub fn render(reason: &str) -> String {
    let spans = span::collect();
    let logs = log::collect();
    // Merge-sort the two feeds by timestamp.  Each is already sorted.
    enum Ev {
        Span(span::SpanEvent),
        Log(log::LogEvent),
    }
    let mut events: Vec<(u64, Ev)> = spans
        .into_iter()
        .map(|s| (s.start_ns, Ev::Span(s)))
        .chain(logs.into_iter().map(|l| (l.t_ns, Ev::Log(l))))
        .collect();
    events.sort_by_key(|(t, _)| *t);
    let mut out = format!(
        "{{\"kind\":\"flight\",\"reason\":\"{}\",\"events\":{},\"t_ns\":{}}}\n",
        log::json_escape(reason),
        events.len(),
        now_ns()
    );
    for (_, event) in events {
        match event {
            Ev::Span(s) => out.push_str(&format!(
                "{{\"kind\":\"span\",\"t_ns\":{},\"dur_ns\":{},\"name\":\"{}\",\"conn\":{},\"req\":{}}}\n",
                s.start_ns,
                s.dur_ns,
                log::json_escape(s.name),
                s.conn,
                s.req
            )),
            Ev::Log(l) => {
                out.push_str(&log::render_json(&l));
                out.push('\n');
            }
        }
    }
    out
}

/// Dumps the flight record to the configured path (stderr when none),
/// returning the rendered JSON-lines.  Safe to call from a panic hook.
pub fn dump(reason: &str) -> String {
    let rendered = render(reason);
    let path = dump_path()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    match path {
        Some(path) => {
            if std::fs::write(&path, &rendered).is_err() {
                let mut err = std::io::stderr().lock();
                let _ = err.write_all(rendered.as_bytes());
            }
        }
        None => {
            let mut err = std::io::stderr().lock();
            let _ = err.write_all(rendered.as_bytes());
        }
    }
    rendered
}

/// Installs a panic hook that dumps the flight record (reason
/// `"panic: <message>"`) before delegating to the previously installed
/// hook.  Idempotent per process.
pub fn install_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_string());
            dump(&format!("panic: {message}"));
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_carries_spans_and_logs_in_order() {
        crate::span::record("flight.test", 100, 200, 1, 2);
        crate::log::emit(
            crate::Level::Warn,
            "flight-test",
            Vec::new(),
            "chaos".into(),
        );
        let dumped = render("unit-test");
        let mut lines = dumped.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("\"kind\":\"flight\""));
        assert!(header.contains("\"reason\":\"unit-test\""));
        assert!(dumped.contains("\"name\":\"flight.test\""));
        assert!(dumped.contains("\"msg\":\"chaos\""));
        // Every line is a JSON object; timestamps are sorted.
        let mut last = 0u64;
        for line in dumped.lines().skip(1) {
            assert!(line.starts_with('{') && line.ends_with('}'));
            let t: u64 = line
                .split("\"t_ns\":")
                .nth(1)
                .unwrap()
                .split([',', '}'])
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!(t >= last);
            last = t;
        }
    }
}
