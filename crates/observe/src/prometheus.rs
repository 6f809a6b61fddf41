//! Prometheus text exposition (format v0.0.4) for the recorder's
//! registry, plus a minimal plain-TCP scrape endpoint.
//!
//! Everything rendered here derives from the no-leak registry — phase
//! latency digests, counters and gauges. Metric
//! values are aggregates over protocol coordinates and timings; no
//! private value or rank ever reaches a label or sample.
//!
//! The server is deliberately small: a blocking accept loop on a
//! `std::net::TcpListener` with just enough HTTP to be well-formed for
//! standard clients — it parses the request path, answers `/metrics`
//! (and `/`) with the exposition, `/healthz` with a health summary, and
//! anything else with `404`, always with a status line, `Content-Type`
//! and `Content-Length`. No external dependency.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::histogram::{bucket_upper, HistogramSnapshot, BUCKETS};
use crate::recorder::Summary;

/// Replaces every character outside `[a-zA-Z0-9_:]` with `_` so
/// runtime-built registry names (`queue_wait/group3`) stay legal
/// Prometheus metric names.
#[must_use]
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Formats an `f64` sample the way the exposition format expects:
/// always a `.` decimal separator, never scientific notation, and the
/// literal `NaN` / `+Inf` / `-Inf` spellings for non-finite values.
///
/// Rust's `Display` for `f64` is already locale-independent and never
/// produces an exponent, so this only has to guard the non-finite
/// cases.
fn format_f64(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_string()
    } else if value == f64::INFINITY {
        "+Inf".to_string()
    } else if value == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{value}")
    }
}

/// Appends one floating-point gauge sample (`# TYPE` header plus
/// value), with locale-stable formatting and non-finite values rendered
/// as the exposition format's `NaN`/`+Inf`/`-Inf` literals.
pub fn write_gauge_f64(out: &mut String, name: &str, help: &str, value: f64) {
    let name = sanitize_metric_name(name);
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {}", format_f64(value));
}

/// Appends one floating-point gauge family with one sample per label
/// set: `samples` pairs a rendered label body (e.g. `node="3"`) with
/// its value. A single `# HELP`/`# TYPE` header covers the family.
pub fn write_gauge_f64_series(out: &mut String, name: &str, help: &str, samples: &[(String, f64)]) {
    let name = sanitize_metric_name(name);
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    for (labels, value) in samples {
        let _ = writeln!(out, "{name}{{{labels}}} {}", format_f64(*value));
    }
}

/// Appends one counter sample (`# TYPE` header plus value).
pub fn write_counter(out: &mut String, name: &str, help: &str, value: u64) {
    let name = sanitize_metric_name(name);
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {value}");
}

/// Appends the `privtopk_build_info` series: a constant-1 gauge whose
/// labels carry build metadata, the conventional way to join dashboards
/// against a version without putting strings in sample values.
pub fn write_build_info(out: &mut String) {
    let name = "privtopk_build_info";
    let _ = writeln!(out, "# HELP {name} Build metadata; the value is always 1.");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name}{{version=\"{}\"}} 1", env!("CARGO_PKG_VERSION"));
}

/// Appends one gauge sample.
pub fn write_gauge(out: &mut String, name: &str, help: &str, value: u64) {
    let name = sanitize_metric_name(name);
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// Appends one histogram in cumulative-bucket form (`_bucket{{le=..}}`,
/// `_sum`, `_count`), with bucket boundaries in nanoseconds. Empty
/// leading buckets are skipped; the rendered series stays cumulative
/// and always ends with `le="+Inf"`.
pub fn write_histogram(out: &mut String, name: &str, help: &str, snapshot: &HistogramSnapshot) {
    let name = sanitize_metric_name(name);
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for index in 0..BUCKETS {
        let count = snapshot.buckets[index];
        if count == 0 {
            continue;
        }
        cumulative += count;
        let _ = writeln!(
            out,
            "{name}_bucket{{le=\"{}\"}} {cumulative}",
            bucket_upper(index)
        );
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", snapshot.count);
    let _ = writeln!(out, "{name}_sum {}", snapshot.sum_ns);
    let _ = writeln!(out, "{name}_count {}", snapshot.count);
    if snapshot.count > 0 {
        write_gauge_f64(
            out,
            &format!("{name}_mean"),
            "Mean sample value of the histogram, in nanoseconds.",
            snapshot.mean_ns(),
        );
    }
}

/// Renders a full recorder [`Summary`] as one exposition body. All
/// metric names carry the `privtopk_` prefix; histogram samples are in
/// nanoseconds (suffix `_ns`).
#[must_use]
pub fn render_summary(summary: &Summary) -> String {
    let mut out = String::with_capacity(2048);
    for (phase, snapshot) in &summary.phases {
        write_histogram(
            &mut out,
            &format!("privtopk_phase_{}_ns", phase.as_str()),
            "Span latency for this protocol phase, in nanoseconds.",
            snapshot,
        );
    }
    for (name, value) in &summary.counters {
        write_counter(
            &mut out,
            &format!("privtopk_{name}_total"),
            "Monotonic event counter.",
            *value,
        );
    }
    for (name, gauge) in &summary.gauges {
        write_gauge(
            &mut out,
            &format!("privtopk_{name}"),
            "Last observed value.",
            gauge.value,
        );
        write_gauge(
            &mut out,
            &format!("privtopk_{name}_high_water"),
            "Largest value ever observed.",
            gauge.high_water,
        );
    }
    write_counter(
        &mut out,
        "privtopk_trace_events_recorded_total",
        "Trace events held in the recorder's event ring.",
        summary.events_recorded,
    );
    write_counter(
        &mut out,
        "privtopk_trace_events_dropped_total",
        "Trace events the recorder's event ring has overwritten.",
        summary.events_dropped,
    );
    out
}

/// A scrape endpoint: binds a TCP listener and answers every
/// connection with the body produced by the render callback.
///
/// The listener thread shuts down on drop (or [`MetricsServer::stop`])
/// by flagging and self-connecting to unblock `accept`.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// serves `render()` to every `/metrics` request; `/healthz`
    /// answers a plain `ok`.
    pub fn bind<F>(addr: &str, render: F) -> std::io::Result<MetricsServer>
    where
        F: Fn() -> String + Send + 'static,
    {
        MetricsServer::bind_with_health(addr, render, || "ok\n".to_string())
    }

    /// [`bind`](MetricsServer::bind) with a custom `/healthz` body —
    /// how a service surfaces its live SLO verdict
    /// (`crate::SloReport::health_body`) next to its metrics.
    pub fn bind_with_health<F, H>(
        addr: &str,
        render: F,
        health: H,
    ) -> std::io::Result<MetricsServer>
    where
        F: Fn() -> String + Send + 'static,
        H: Fn() -> String + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("privtopk-metrics".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop_flag.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Render outside any lock the callback may take and
                    // serve; a failed client write only drops this scrape.
                    let _ = serve_one(stream, &render, &health);
                }
            })?;
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (port resolved when binding `:0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the listener thread. Idempotent.
    pub fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            // Unblock accept() with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Extracts the request path from an HTTP request head, with the query
/// string stripped. An unparsable head (a crude client that sent
/// nothing yet) defaults to `/metrics` so bare-socket scrapers keep
/// working.
fn request_path(head: &[u8]) -> &str {
    let text = std::str::from_utf8(head).unwrap_or("");
    let mut parts = text.lines().next().unwrap_or("").split_whitespace();
    match (parts.next(), parts.next()) {
        (Some(_method), Some(target)) if target.starts_with('/') => {
            target.split('?').next().unwrap_or(target)
        }
        _ => "/metrics",
    }
}

/// Reads the request head, routes on its path, and writes one
/// well-formed HTTP/1.1 reply (status line, `Content-Type`,
/// `Content-Length`, `Connection: close`).
fn serve_one(
    mut stream: TcpStream,
    render: &dyn Fn() -> String,
    health: &dyn Fn() -> String,
) -> std::io::Result<()> {
    // Read whatever request bytes arrive promptly; scrape clients send
    // the GET line immediately and the first 1024 bytes always hold it.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut buf = [0u8; 1024];
    let n = stream.read(&mut buf).unwrap_or(0);
    let (status, content_type, body) = match request_path(&buf[..n]) {
        "/metrics" | "/" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            render(),
        ),
        "/healthz" => ("200 OK", "text/plain; charset=utf-8", health()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
    };
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Default deadline applied by [`scrape`] to connecting, sending the
/// request and each read — a hung peer errors out instead of blocking
/// the caller forever.
pub const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

/// Fetches one scrape from `addr` and returns the body (test/CLI
/// helper — a deliberately minimal HTTP/1.1 client). Bounded by
/// [`SCRAPE_TIMEOUT`]; use [`scrape_timeout`] for a custom deadline.
pub fn scrape(addr: &SocketAddr) -> std::io::Result<String> {
    scrape_timeout(addr, SCRAPE_TIMEOUT)
}

/// [`scrape`] with an explicit deadline for connecting, writing the
/// request and each read. A server that accepts but never responds
/// yields a timeout error instead of hanging the caller.
pub fn scrape_timeout(addr: &SocketAddr, timeout: Duration) -> std::io::Result<String> {
    scrape_path(addr, "/metrics", timeout)
}

/// Fetches an arbitrary path from a metrics server (e.g. `/healthz`)
/// and returns the body of a `200` reply; any other status is an
/// `InvalidData` error carrying the status line.
pub fn scrape_path(addr: &SocketAddr, path: &str, timeout: Duration) -> std::io::Result<String> {
    let mut stream = TcpStream::connect_timeout(addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: privtopk\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((head, body)) if head.starts_with("HTTP/1.1 200") => Ok(body.to_string()),
        Some((head, _)) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "scrape of {path} answered: {}",
                head.lines().next().unwrap_or("<empty status line>")
            ),
        )),
        _ => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "malformed scrape response",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ctx, Phase, Recorder};
    use std::time::Duration;

    fn sample_summary() -> Summary {
        let rec = Recorder::new();
        rec.tick(Phase::Step, Ctx::default().with_node(0));
        rec.tick(Phase::Send, Ctx::default().with_node(1));
        rec.add("frames_sent", 3);
        rec.gauge_set("in_flight", 2);
        rec.gauge_set("in_flight", 1);
        rec.summary()
    }

    #[test]
    fn sanitizes_runtime_built_names() {
        assert_eq!(
            sanitize_metric_name("queue_wait/group3"),
            "queue_wait_group3"
        );
        assert_eq!(sanitize_metric_name("a b-c"), "a_b_c");
        assert_eq!(sanitize_metric_name("0weird"), "_0weird");
    }

    #[test]
    fn renders_all_registry_sections() {
        let body = render_summary(&sample_summary());
        assert!(body.contains("# TYPE privtopk_phase_step_ns histogram"));
        assert!(body.contains("privtopk_phase_step_ns_count 1"));
        assert!(body.contains("# TYPE privtopk_frames_sent_total counter"));
        assert!(body.contains("privtopk_frames_sent_total 3"));
        assert!(body.contains("privtopk_in_flight 1"));
        assert!(body.contains("privtopk_in_flight_high_water 2"));
        assert!(body.contains("privtopk_trace_events_recorded_total 2"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_with_inf() {
        let mut buckets = [0u64; BUCKETS];
        buckets[3] = 2; // [4, 7]
        buckets[10] = 1; // [512, 1023]
        let snapshot = HistogramSnapshot::from_parts(buckets, 1536, 1000);
        let mut out = String::new();
        write_histogram(&mut out, "x_ns", "help", &snapshot);
        let lines: Vec<&str> = out.lines().filter(|l| l.contains("_bucket")).collect();
        assert_eq!(lines[0], "x_ns_bucket{le=\"7\"} 2");
        assert_eq!(lines[1], "x_ns_bucket{le=\"1023\"} 3");
        assert_eq!(lines[2], "x_ns_bucket{le=\"+Inf\"} 3");
        assert!(out.contains("x_ns_sum 1536"));
        assert!(out.contains("x_ns_count 3"));
    }

    /// Whether `name` is a legal Prometheus metric name:
    /// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
    fn is_legal_metric_name(name: &str) -> bool {
        let mut chars = name.chars();
        let Some(first) = chars.next() else {
            return false;
        };
        (first.is_ascii_alphabetic() || first == '_' || first == ':')
            && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    #[test]
    fn sanitize_handles_edge_cases() {
        assert_eq!(
            sanitize_metric_name("already_legal:name"),
            "already_legal:name"
        );
        assert_eq!(sanitize_metric_name("7seconds"), "_7seconds");
        assert_eq!(
            sanitize_metric_name("sp ace/slash.dot-dash"),
            "sp_ace_slash_dot_dash"
        );
        assert_eq!(sanitize_metric_name("uni©ode"), "uni_ode");
        assert_eq!(sanitize_metric_name(""), "");
        assert!(is_legal_metric_name(&sanitize_metric_name(
            "99 red balloons"
        )));
    }

    proptest::proptest! {
        #[test]
        fn sanitize_output_is_legal_and_idempotent(name in ".+") {
            let once = sanitize_metric_name(&name);
            proptest::prop_assert!(
                is_legal_metric_name(&once),
                "illegal output {once:?} for input {name:?}"
            );
            proptest::prop_assert_eq!(sanitize_metric_name(&once), once);
        }
    }

    #[test]
    fn f64_gauges_format_locale_stable() {
        let mut out = String::new();
        write_gauge_f64(&mut out, "privacy_lop", "help", 0.0625);
        assert!(out.contains("# TYPE privacy_lop gauge"));
        assert!(out.contains("privacy_lop 0.0625"));
        // No scientific notation even for extreme magnitudes.
        let mut out = String::new();
        write_gauge_f64(&mut out, "tiny", "help", 0.000000001);
        let sample = out.lines().last().unwrap();
        assert_eq!(sample, "tiny 0.000000001");
        assert!(
            !sample.contains('e'),
            "scientific notation leaked: {sample}"
        );
        // Non-finite values use the exposition literals.
        let mut out = String::new();
        write_gauge_f64(&mut out, "a", "h", f64::NAN);
        write_gauge_f64(&mut out, "b", "h", f64::INFINITY);
        write_gauge_f64(&mut out, "c", "h", f64::NEG_INFINITY);
        assert!(out.contains("a NaN"));
        assert!(out.contains("b +Inf"));
        assert!(out.contains("c -Inf"));
    }

    #[test]
    fn f64_gauge_series_shares_one_header() {
        let mut out = String::new();
        write_gauge_f64_series(
            &mut out,
            "privtopk_privacy_lop_node",
            "Per-node LoP.",
            &[
                ("node=\"0\"".to_string(), 0.25),
                ("node=\"1\"".to_string(), 0.5),
            ],
        );
        assert_eq!(out.matches("# TYPE").count(), 1);
        assert!(out.contains("privtopk_privacy_lop_node{node=\"0\"} 0.25"));
        assert!(out.contains("privtopk_privacy_lop_node{node=\"1\"} 0.5"));
    }

    #[test]
    fn histograms_emit_their_mean_as_f64() {
        let mut buckets = [0u64; BUCKETS];
        buckets[3] = 2;
        let snapshot = HistogramSnapshot::from_parts(buckets, 9, 2);
        let mut out = String::new();
        write_histogram(&mut out, "x_ns", "help", &snapshot);
        assert!(out.contains("# TYPE x_ns_mean gauge"));
        assert!(out.contains("x_ns_mean 4.5"), "got {out}");
        // Empty histograms skip the mean (0/0 is not a sample).
        let empty = HistogramSnapshot::from_parts([0u64; BUCKETS], 0, 0);
        let mut out = String::new();
        write_histogram(&mut out, "y_ns", "help", &empty);
        assert!(!out.contains("y_ns_mean"));
    }

    #[test]
    fn scrape_times_out_on_a_silent_peer() {
        use std::net::TcpListener;
        // A listener that accepts connections but never writes a byte.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            let mut held = Vec::new();
            for stream in listener.incoming().take(1) {
                held.push(stream);
            }
            std::thread::sleep(Duration::from_millis(700));
            drop(held);
        });
        let started = std::time::Instant::now();
        let result = scrape_timeout(&addr, Duration::from_millis(200));
        assert!(result.is_err(), "scrape of a silent peer must fail");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "scrape did not respect its deadline"
        );
        hold.join().unwrap();
    }

    #[test]
    fn server_answers_scrapes_until_stopped() {
        let mut server =
            MetricsServer::bind("127.0.0.1:0", || render_summary(&sample_summary())).unwrap();
        let addr = server.addr();
        for _ in 0..3 {
            let body = scrape(&addr).unwrap();
            assert!(body.contains("privtopk_frames_sent_total 3"));
        }
        server.stop();
        server.stop(); // idempotent
        assert!(scrape(&addr).is_err() || scrape(&addr).is_err());
    }

    /// Issues a raw request and returns the full response (head + body),
    /// so header assertions see exactly the bytes on the wire.
    fn raw_request(addr: &SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn responses_are_well_formed_http() {
        let server = MetricsServer::bind("127.0.0.1:0", || "metric_a 1\n".to_string()).unwrap();
        let addr = server.addr();
        let response = raw_request(&addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert!(head.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"));
        assert!(head.contains(&format!("Content-Length: {}", body.len())));
        assert!(head.contains("Connection: close"));
        assert_eq!(body, "metric_a 1\n");
    }

    #[test]
    fn unknown_paths_get_a_404_and_healthz_answers() {
        let server = MetricsServer::bind_with_health(
            "127.0.0.1:0",
            || "metric_a 1\n".to_string(),
            || "ok\ncustom health\n".to_string(),
        )
        .unwrap();
        let addr = server.addr();
        let missing = raw_request(&addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404 Not Found"));
        assert!(missing.contains("Content-Length: 10"));
        assert!(missing.ends_with("not found\n"));
        let health = scrape_path(&addr, "/healthz", SCRAPE_TIMEOUT).unwrap();
        assert_eq!(health, "ok\ncustom health\n");
        // scrape_path surfaces non-200 statuses in the error text.
        let err = scrape_path(&addr, "/nope", SCRAPE_TIMEOUT).unwrap_err();
        assert!(err.to_string().contains("404"), "got {err}");
        // The root path and query strings still reach the exposition.
        assert!(scrape_path(&addr, "/", SCRAPE_TIMEOUT)
            .unwrap()
            .contains("metric_a 1"));
        assert!(scrape_path(&addr, "/metrics?x=1", SCRAPE_TIMEOUT)
            .unwrap()
            .contains("metric_a 1"));
    }

    #[test]
    fn request_path_parses_and_defaults() {
        assert_eq!(request_path(b"GET /healthz HTTP/1.1\r\n"), "/healthz");
        assert_eq!(request_path(b"GET /metrics?a=b HTTP/1.1\r\n"), "/metrics");
        assert_eq!(request_path(b""), "/metrics");
        assert_eq!(request_path(b"garbage"), "/metrics");
    }

    #[test]
    fn build_info_is_a_constant_one_with_a_version_label() {
        let mut out = String::new();
        write_build_info(&mut out);
        assert!(out.contains("# TYPE privtopk_build_info gauge"));
        assert!(out.contains(&format!(
            "privtopk_build_info{{version=\"{}\"}} 1",
            env!("CARGO_PKG_VERSION")
        )));
    }
}
