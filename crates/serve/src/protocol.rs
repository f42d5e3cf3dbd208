//! The line-delimited wire protocol.
//!
//! Requests are a single command line:
//!
//! ```text
//! run table          # scenario text follows, terminated by a line "end"
//! run json           # ditto, JSON body
//! ping               # liveness probe
//! stats              # engine counters
//! shutdown           # stop the daemon (drains in-flight work)
//! quit               # close this connection
//! ```
//!
//! `run` is followed by the scenario **in the `.scenario` text format** —
//! the checked-in file format *is* the wire format — terminated by a line
//! consisting of `end`. The sentinel is safe: `end` is not a scenario
//! keyword and the renderer never emits it as a line of its own.
//!
//! Replies are one meta line plus an exact-length body:
//!
//! ```text
//! ok cells=6 cached=6 computed=0 len=412\n<412 body bytes>
//! ok pong len=0\n
//! err busy: server is at capacity (8/8 cells in flight); retry later\n
//! ```
//!
//! The body is byte-identical however the cells were obtained (cold,
//! warm, coalesced) — provenance lives only in the meta line — so a
//! client can diff bodies against the batch binaries' output directly.

use crate::engine::{Format, ServeError, ServeResponse};
use std::io::{self, BufRead, Write};

/// Terminates the scenario text of a `run` request.
pub const END_SENTINEL: &str = "end";

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run a scenario and return the rendered body.
    Run {
        /// Requested body format.
        format: Format,
        /// The scenario in `.scenario` text form (sentinel stripped).
        scenario_text: String,
    },
    /// Liveness probe.
    Ping,
    /// Engine counters.
    Stats,
    /// Stop the daemon.
    Shutdown,
    /// Close this connection.
    Quit,
}

/// Reads one request. `Ok(None)` means the peer closed the connection
/// cleanly; a malformed command or a missing sentinel is an
/// `InvalidData` error whose text is sent back as `err protocol: ...`.
pub fn read_request(reader: &mut impl BufRead) -> io::Result<Option<Request>> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let cmd = line.trim_end_matches(['\r', '\n']);
    match cmd {
        "ping" => return Ok(Some(Request::Ping)),
        "stats" => return Ok(Some(Request::Stats)),
        "shutdown" => return Ok(Some(Request::Shutdown)),
        "quit" | "" => return Ok(Some(Request::Quit)),
        _ => {}
    }
    let format = match cmd {
        "run table" | "run" => Format::Table,
        "run json" => Format::Json,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown command {other:?}"),
            ))
        }
    };
    let mut scenario_text = String::new();
    loop {
        let mut l = String::new();
        if reader.read_line(&mut l)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("connection closed before the {END_SENTINEL:?} sentinel"),
            ));
        }
        if l.trim_end_matches(['\r', '\n']) == END_SENTINEL {
            break;
        }
        scenario_text.push_str(&l);
    }
    Ok(Some(Request::Run {
        format,
        scenario_text,
    }))
}

/// Serializes a `run` request (command line, scenario text, sentinel).
pub fn write_run(w: &mut impl Write, format: Format, scenario_text: &str) -> io::Result<()> {
    let fmt = match format {
        Format::Table => "table",
        Format::Json => "json",
    };
    write!(w, "run {fmt}\n{scenario_text}")?;
    if !scenario_text.ends_with('\n') {
        w.write_all(b"\n")?;
    }
    writeln!(w, "{END_SENTINEL}")?;
    w.flush()
}

/// Writes a successful `run` reply: provenance meta line plus body.
pub fn write_response(w: &mut impl Write, resp: &ServeResponse) -> io::Result<()> {
    writeln!(
        w,
        "ok cells={} cached={} computed={} len={}",
        resp.cells,
        resp.cached,
        resp.computed,
        resp.body.len()
    )?;
    w.write_all(resp.body.as_bytes())?;
    w.flush()
}

/// Writes an `ok <tag> len=N` reply with an arbitrary body.
pub fn write_ok(w: &mut impl Write, tag: &str, body: &str) -> io::Result<()> {
    writeln!(w, "ok {tag} len={}", body.len())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// The wire kind for a [`ServeError`] — clients dispatch on it
/// (`busy`/`timeout` are retriable, the rest are not).
pub fn error_kind(e: &ServeError) -> &'static str {
    match e {
        ServeError::Scenario(_) | ServeError::HostPath | ServeError::TooManyCells { .. } => {
            "scenario"
        }
        ServeError::Cache(_) => "cache",
        ServeError::Busy { .. } => "busy",
        ServeError::Timeout { .. } => "timeout",
        ServeError::Cell { .. } => "cell",
        ServeError::Grid(_) => "grid",
    }
}

/// Writes an `err <kind>: <message>` reply. Newlines in the message are
/// flattened — error replies are always exactly one line.
pub fn write_err(w: &mut impl Write, kind: &str, msg: &str) -> io::Result<()> {
    writeln!(w, "err {kind}: {}", msg.replace('\n', " "))?;
    w.flush()
}

/// A successful reply as seen by a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The meta line, without the `ok ` prefix or trailing newline
    /// (e.g. `cells=6 cached=6 computed=0 len=412`, or `pong len=0`).
    pub meta: String,
    /// The exact-length body.
    pub body: String,
}

impl Reply {
    /// Parses `key=value` integers out of the meta line (`cells`,
    /// `cached`, `computed`, ...). `None` if the key is absent.
    pub fn meta_field(&self, key: &str) -> Option<u64> {
        self.meta.split_whitespace().find_map(|tok| {
            tok.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix('='))
                .and_then(|v| v.parse().ok())
        })
    }
}

/// Reads one reply. The outer `Err` is transport failure; the inner
/// `Err(line)` is a server-reported `err ...` line.
#[allow(clippy::type_complexity)]
pub fn read_reply(reader: &mut impl BufRead) -> io::Result<Result<Reply, String>> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a reply",
        ));
    }
    let line = line.trim_end_matches(['\r', '\n']);
    if let Some(msg) = line.strip_prefix("err ") {
        return Ok(Err(msg.to_string()));
    }
    let meta = line.strip_prefix("ok ").ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed reply line {line:?}"),
        )
    })?;
    let len: usize = meta
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("len=").and_then(|v| v.parse().ok()))
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply meta line without len=: {meta:?}"),
            )
        })?;
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(Ok(Reply {
        meta: meta.to_string(),
        body,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn run_request_round_trips() {
        let mut wire = Vec::new();
        write_run(&mut wire, Format::Json, "scenario demo\nworkload gcc\n").unwrap();
        let mut r = BufReader::new(&wire[..]);
        let req = read_request(&mut r).unwrap().unwrap();
        assert_eq!(
            req,
            Request::Run {
                format: Format::Json,
                scenario_text: "scenario demo\nworkload gcc\n".to_string(),
            }
        );
        // Nothing left over: the next read is a clean EOF.
        assert_eq!(read_request(&mut r).unwrap(), None);
    }

    #[test]
    fn run_request_without_trailing_newline_gets_one() {
        let mut wire = Vec::new();
        write_run(&mut wire, Format::Table, "scenario demo").unwrap();
        let req = read_request(&mut BufReader::new(&wire[..]))
            .unwrap()
            .unwrap();
        assert_eq!(
            req,
            Request::Run {
                format: Format::Table,
                scenario_text: "scenario demo\n".to_string(),
            }
        );
    }

    #[test]
    fn control_commands_parse() {
        for (line, want) in [
            ("ping\n", Request::Ping),
            ("stats\n", Request::Stats),
            ("shutdown\n", Request::Shutdown),
            ("quit\n", Request::Quit),
        ] {
            let req = read_request(&mut BufReader::new(line.as_bytes()))
                .unwrap()
                .unwrap();
            assert_eq!(req, want, "command {line:?}");
        }
    }

    #[test]
    fn unknown_command_is_invalid_data() {
        let err = read_request(&mut BufReader::new(&b"frobnicate\n"[..])).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn missing_sentinel_is_invalid_data() {
        let err =
            read_request(&mut BufReader::new(&b"run table\nscenario demo\n"[..])).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn reply_round_trips_and_meta_fields_parse() {
        let resp = ServeResponse {
            body: "hello table\n".to_string(),
            cells: 6,
            cached: 4,
            computed: 2,
        };
        let mut wire = Vec::new();
        write_response(&mut wire, &resp).unwrap();
        let reply = read_reply(&mut BufReader::new(&wire[..])).unwrap().unwrap();
        assert_eq!(reply.body, resp.body);
        assert_eq!(reply.meta_field("cells"), Some(6));
        assert_eq!(reply.meta_field("cached"), Some(4));
        assert_eq!(reply.meta_field("computed"), Some(2));
        assert_eq!(reply.meta_field("len"), Some(12));
        assert_eq!(reply.meta_field("absent"), None);
    }

    #[test]
    fn error_reply_surfaces_as_inner_err() {
        let mut wire = Vec::new();
        write_err(&mut wire, "busy", "server is at capacity\nretry later").unwrap();
        let got = read_reply(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(
            got,
            Err("busy: server is at capacity retry later".to_string())
        );
    }
}
