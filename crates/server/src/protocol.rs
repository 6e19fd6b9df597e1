//! The wire protocol: line-oriented headers with length-prefixed binary
//! bodies, usable over any `Read`/`Write` pair (loopback TCP in
//! production, in-memory buffers in tests).
//!
//! Requests:
//!
//! | line | body | meaning |
//! |---|---|---|
//! | `PING` | — | liveness check |
//! | `LS` | — | list live objects |
//! | `STATS` | — | server counters |
//! | `FETCH <target>` | — | fetch an object (id or name) |
//! | `RFETCH <target>` | — | fetch through the recovery pipeline |
//! | `PUT <name> <len>` | `len` bytes | store a new object |
//! | `DEL <target>` | — | tombstone an object |
//! | `QUIT` | — | close the connection |
//!
//! Responses are `OK <len>` followed by exactly `len` body bytes, or
//! `ERR <code> <message>` with no body. Every response is framed, so a
//! client never needs to guess where one reply ends and the next starts.

use dna_object::capsule::MAX_NAME_LEN;
use std::io::{self, BufRead, Read, Write};

/// Hard cap on any framed body (request or response): a wire-corrupted
/// or hostile length prefix must not become an allocation bomb.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Hard cap on one request line, newline included: the longest verb, a
/// [`MAX_NAME_LEN`] name, a 20-digit length and the separators. A line
/// with no newline within it must not grow server memory without bound.
pub const MAX_LINE_BYTES: usize = "RFETCH".len() + MAX_NAME_LEN + 20 + 4;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness check; answered with `pong`.
    Ping,
    /// List live objects.
    Ls,
    /// Server counters (requests, coalesced fetches, …).
    Stats,
    /// Fetch an object by id or name; `recover` routes the decode
    /// through the unlabeled-pool recovery pipeline.
    Fetch {
        /// Object id (decimal) or name.
        target: String,
        /// Use the recovery decode path (`RFETCH`).
        recover: bool,
    },
    /// Store `data` as a new object named `name`.
    Put {
        /// Object name (no whitespace).
        name: String,
        /// Payload bytes.
        data: Vec<u8>,
    },
    /// Tombstone an object by id or name.
    Del {
        /// Object id (decimal) or name.
        target: String,
    },
}

/// One frame read from a connection: a request, or the `QUIT` sentinel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A request to execute.
    Request(Request),
    /// The client is done; close the connection.
    Quit,
}

/// Machine-readable error classes, stable on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Unknown object id/name (or tombstoned).
    NotFound,
    /// Malformed request or invalid argument.
    Bad,
    /// The server is shutting down (or the queue is closed).
    Busy,
    /// Store or decode failure.
    Internal,
}

impl ErrorCode {
    fn as_str(self) -> &'static str {
        match self {
            ErrorCode::NotFound => "not-found",
            ErrorCode::Bad => "bad-request",
            ErrorCode::Busy => "busy",
            ErrorCode::Internal => "internal",
        }
    }

    fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "not-found" => ErrorCode::NotFound,
            "bad-request" => ErrorCode::Bad,
            "busy" => ErrorCode::Busy,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A server reply: a framed body on success, a coded line on failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success; `body` is the payload (object bytes, listing text, …).
    Ok(Vec<u8>),
    /// Failure with a machine-readable code and a one-line message.
    Err(ErrorCode, String),
}

impl Response {
    /// Convenience: a success response from anything byte-like.
    pub fn ok(body: impl Into<Vec<u8>>) -> Response {
        Response::Ok(body.into())
    }

    /// Convenience: an error response (newlines flattened).
    pub fn err(code: ErrorCode, message: impl Into<String>) -> Response {
        Response::Err(code, message.into().replace('\n', " "))
    }

    /// Whether this is a success.
    pub fn is_ok(&self) -> bool {
        matches!(self, Response::Ok(_))
    }
}

fn bad(reason: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason.into())
}

fn token(s: &str) -> io::Result<String> {
    if s.is_empty() || s.chars().any(char::is_whitespace) {
        return Err(bad(format!("bad token {s:?}")));
    }
    Ok(s.to_string())
}

fn parse_len(s: &str) -> io::Result<usize> {
    let len: usize = s.parse().map_err(|_| bad(format!("bad length {s:?}")))?;
    if len > MAX_FRAME_BYTES {
        return Err(bad(format!(
            "frame of {len} bytes exceeds {MAX_FRAME_BYTES}"
        )));
    }
    Ok(len)
}

/// Writes one request frame.
///
/// # Errors
///
/// Propagates writer I/O errors.
pub fn write_request(w: &mut impl Write, request: &Request) -> io::Result<()> {
    match request {
        Request::Ping => w.write_all(b"PING\n"),
        Request::Ls => w.write_all(b"LS\n"),
        Request::Stats => w.write_all(b"STATS\n"),
        Request::Fetch { target, recover } => {
            let verb = if *recover { "RFETCH" } else { "FETCH" };
            writeln!(w, "{verb} {target}")
        }
        Request::Put { name, data } => {
            writeln!(w, "PUT {name} {}", data.len())?;
            w.write_all(data)
        }
        Request::Del { target } => writeln!(w, "DEL {target}"),
    }
}

/// Writes the `QUIT` sentinel.
///
/// # Errors
///
/// Propagates writer I/O errors.
pub fn write_quit(w: &mut impl Write) -> io::Result<()> {
    w.write_all(b"QUIT\n")
}

/// Reads one frame; `Ok(None)` means the peer closed the connection
/// cleanly (EOF at a frame boundary).
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on malformed lines (invalid UTF-8
/// included), lines longer than [`MAX_LINE_BYTES`], or oversized frames;
/// [`io::ErrorKind::UnexpectedEof`] on EOF inside a body; reader I/O
/// errors otherwise.
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Option<Frame>> {
    let mut line = String::new();
    let read = r
        .by_ref()
        .take(MAX_LINE_BYTES as u64)
        .read_line(&mut line)?;
    if read == 0 {
        return Ok(None);
    }
    if read == MAX_LINE_BYTES && !line.ends_with('\n') {
        return Err(bad(format!("request line exceeds {MAX_LINE_BYTES} bytes")));
    }
    let line = line.trim_end_matches(['\r', '\n']);
    let mut parts = line.split(' ');
    let verb = parts.next().unwrap_or("");
    let mut arg = |what: &str| -> io::Result<String> {
        token(
            parts
                .next()
                .ok_or_else(|| bad(format!("{verb} missing {what}")))?,
        )
    };
    let frame = match verb {
        "PING" => Frame::Request(Request::Ping),
        "LS" => Frame::Request(Request::Ls),
        "STATS" => Frame::Request(Request::Stats),
        "QUIT" => Frame::Quit,
        "FETCH" | "RFETCH" => Frame::Request(Request::Fetch {
            target: arg("target")?,
            recover: verb == "RFETCH",
        }),
        "DEL" => Frame::Request(Request::Del {
            target: arg("target")?,
        }),
        "PUT" => {
            let name = arg("name")?;
            let len = parse_len(&arg("length")?)?;
            let mut data = vec![0u8; len];
            r.read_exact(&mut data)?;
            Frame::Request(Request::Put { name, data })
        }
        other => return Err(bad(format!("unknown verb {other:?}"))),
    };
    if parts.next().is_some() {
        return Err(bad(format!("trailing arguments on {verb}")));
    }
    Ok(Some(frame))
}

/// Writes one response frame.
///
/// # Errors
///
/// Propagates writer I/O errors.
pub fn write_response(w: &mut impl Write, response: &Response) -> io::Result<()> {
    match response {
        Response::Ok(body) => {
            writeln!(w, "OK {}", body.len())?;
            w.write_all(body)
        }
        Response::Err(code, message) => {
            writeln!(w, "ERR {} {}", code.as_str(), message.replace('\n', " "))
        }
    }
}

/// Reads one response frame.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on malformed or oversized frames (EOF
/// before the status line included); reader I/O errors otherwise.
pub fn read_response(r: &mut impl BufRead) -> io::Result<Response> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(bad("connection closed before a response"));
    }
    let line = line.trim_end_matches(['\r', '\n']);
    if let Some(rest) = line.strip_prefix("OK ") {
        let len = parse_len(rest)?;
        let mut body = vec![0u8; len];
        r.read_exact(&mut body)?;
        return Ok(Response::Ok(body));
    }
    if let Some(rest) = line.strip_prefix("ERR ") {
        let (code, message) = rest.split_once(' ').unwrap_or((rest, ""));
        let code = ErrorCode::parse(code).ok_or_else(|| bad(format!("bad error code {code:?}")))?;
        return Ok(Response::Err(code, message.to_string()));
    }
    Err(bad(format!("bad response line {line:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn round_trip_request(request: Request) {
        let mut wire = Vec::new();
        write_request(&mut wire, &request).unwrap();
        let got = read_frame(&mut Cursor::new(&wire)).unwrap().unwrap();
        assert_eq!(got, Frame::Request(request));
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Ping);
        round_trip_request(Request::Ls);
        round_trip_request(Request::Stats);
        round_trip_request(Request::Fetch {
            target: "alpha".into(),
            recover: false,
        });
        round_trip_request(Request::Fetch {
            target: "7".into(),
            recover: true,
        });
        round_trip_request(Request::Put {
            name: "blob".into(),
            data: vec![0, 1, 2, 255],
        });
        round_trip_request(Request::Del {
            target: "blob".into(),
        });
    }

    #[test]
    fn quit_and_eof_frame_boundaries() {
        let mut wire = Vec::new();
        write_quit(&mut wire).unwrap();
        assert_eq!(
            read_frame(&mut Cursor::new(&wire)).unwrap(),
            Some(Frame::Quit)
        );
        assert_eq!(read_frame(&mut Cursor::new(b"")).unwrap(), None);
    }

    #[test]
    fn responses_round_trip() {
        for response in [
            Response::ok(b"hello".to_vec()),
            Response::ok(Vec::new()),
            Response::err(ErrorCode::NotFound, "object 9 not found"),
            Response::err(ErrorCode::Busy, "shutting\ndown"),
        ] {
            let mut wire = Vec::new();
            write_response(&mut wire, &response).unwrap();
            let got = read_response(&mut Cursor::new(&wire)).unwrap();
            assert_eq!(got, response);
        }
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        for wire in [
            &b"NOPE\n"[..],
            b"FETCH\n",
            b"PUT name notanumber\n",
            b"PUT name 5\nab", // body shorter than the prefix
            b"FETCH a b\n",
        ] {
            let err = match read_frame(&mut Cursor::new(wire)) {
                Err(e) => e,
                Ok(f) => panic!("{wire:?} parsed as {f:?}"),
            };
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ),
                "{err}"
            );
        }
        // A length prefix past the frame cap must fail before allocating.
        let huge = format!("PUT name {}\n", MAX_FRAME_BYTES + 1);
        assert!(read_frame(&mut Cursor::new(huge.as_bytes())).is_err());
        let huge = format!("OK {}\n", MAX_FRAME_BYTES + 1);
        assert!(read_response(&mut Cursor::new(huge.as_bytes())).is_err());
    }

    #[test]
    fn an_endless_request_line_is_capped() {
        // 1 MiB with no newline: the reader stops at the cap instead of
        // buffering the whole line.
        let wire = vec![b'A'; 1 << 20];
        let mut reader = Cursor::new(&wire);
        let err = read_frame(&mut reader).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert_eq!(reader.position(), MAX_LINE_BYTES as u64);
        // The longest well-formed lines still fit.
        let name = "n".repeat(MAX_NAME_LEN);
        round_trip_request(Request::Put {
            name: name.clone(),
            data: vec![7; 3],
        });
        round_trip_request(Request::Fetch {
            target: name.clone(),
            recover: true,
        });
        assert!(format!("PUT {name} {}\n", usize::MAX).len() <= MAX_LINE_BYTES);
    }

    #[test]
    fn mutated_and_truncated_frames_are_typed_outcomes() {
        // A seeded splitmix64 stream drives the mutations.
        let mut state = 0x00F0_22ED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as usize
        };
        let long_name = "n".repeat(MAX_NAME_LEN);
        let mut valid: Vec<Vec<u8>> = [
            Request::Ping,
            Request::Ls,
            Request::Stats,
            Request::Fetch {
                target: "42".into(),
                recover: false,
            },
            Request::Fetch {
                target: long_name.clone(),
                recover: true,
            },
            Request::Put {
                name: "obj".into(),
                data: (0..40).collect(),
            },
            Request::Put {
                name: long_name,
                data: Vec::new(),
            },
            Request::Del {
                target: "obj".into(),
            },
        ]
        .iter()
        .map(|request| {
            let mut wire = Vec::new();
            write_request(&mut wire, request).unwrap();
            wire
        })
        .collect();
        valid.push(b"QUIT\n".to_vec());
        // Bytes that move frame structure: separators, line ends, digits.
        let structural = b" \n\r0123456789";
        let (mut frames, mut errors) = (0usize, 0usize);
        for _ in 0..200_000 {
            let mut wire = valid[next() % valid.len()].clone();
            for _ in 0..=next() % 3 {
                let at = next() % (wire.len() + 1);
                match next() % 5 {
                    0 => wire.truncate(at),
                    1 => wire.insert(at, next() as u8),
                    2 => wire.insert(at, structural[next() % structural.len()]),
                    3 if at < wire.len() => wire[at] = next() as u8,
                    _ if at < wire.len() => {
                        wire.remove(at);
                    }
                    _ => {}
                }
            }
            // Read frames until a clean end or the first error: an
            // inserted newline may split one frame into several.
            let mut reader = Cursor::new(&wire);
            loop {
                match read_frame(&mut reader) {
                    Ok(Some(_)) => frames += 1,
                    Ok(None) => break,
                    Err(e) => {
                        assert!(
                            matches!(
                                e.kind(),
                                io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                            ),
                            "{wire:?}: {e}"
                        );
                        errors += 1;
                        break;
                    }
                }
            }
        }
        // Both outcomes are exercised, not just one.
        assert!(
            frames > 1_000 && errors > 1_000,
            "{frames} frames, {errors} errors"
        );
    }
}
