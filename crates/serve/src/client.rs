//! A small blocking client for the m3d-serve protocol.
//!
//! One [`ClientStream`] is one unix-socket connection — one client
//! identity on the server's admission queue. The helpers here stay
//! line-oriented on purpose: the robustness tests need to send
//! malformed bytes and read raw frames, so the typed conveniences are
//! a thin layer over [`ClientStream::send_line`] /
//! [`ClientStream::recv_line`] rather than a sealed RPC surface.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

use monolith3d::{json_raw_field, json_str_field};

use crate::protocol::MAX_FRAME;

/// A blocking JSONL connection to an m3d-serve instance.
pub struct ClientStream {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    next_id: u64,
}

impl ClientStream {
    /// Connects over a unix domain socket.
    ///
    /// # Errors
    ///
    /// Connect/clone failures, verbatim.
    pub fn connect_unix(path: &Path) -> io::Result<ClientStream> {
        let s = UnixStream::connect(path)?;
        let w = s.try_clone()?;
        Ok(ClientStream {
            reader: BufReader::new(s),
            writer: w,
            next_id: 1,
        })
    }

    /// Writes one frame (the newline is appended here).
    ///
    /// # Errors
    ///
    /// Write failures, verbatim.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Writes raw bytes with no framing — the robustness tests use
    /// this to send truncated and hostile payloads.
    ///
    /// # Errors
    ///
    /// Write failures, verbatim.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Reads one response frame; `Ok(None)` on clean EOF (the server
    /// closed the connection). Caps the line at slightly over
    /// [`MAX_FRAME`] so a misbehaving server cannot wedge the client.
    ///
    /// # Errors
    ///
    /// Read failures, and `InvalidData` past the frame cap.
    pub fn recv_line(&mut self) -> io::Result<Option<String>> {
        let mut buf = Vec::new();
        let n = self
            .reader
            .by_ref()
            .take(MAX_FRAME as u64 + 1024)
            .read_until(b'\n', &mut buf)?;
        if n == 0 {
            return Ok(None);
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        } else if buf.len() > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "response frame exceeds the protocol cap",
            ));
        }
        String::from_utf8(buf)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Sends one frame and reads one frame, returning the raw response
    /// line. Correct for the control ops (`ping`/`stats`/`table`/
    /// `shutdown`) and for serial `run` traffic; pipelined runs should
    /// use [`ClientStream::send_line`] and match responses by id.
    ///
    /// # Errors
    ///
    /// I/O failures, and `UnexpectedEof` if the server hung up instead
    /// of responding.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.send_line(line)?;
        self.recv_line()?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }

    /// A fresh request id, unique per connection.
    pub fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }
}

/// `true` when a response frame reports success.
pub fn response_ok(line: &str) -> bool {
    json_raw_field(line, "ok") == Some("true")
}

/// The `"error"` class key of a failed response, if any.
pub fn response_error(line: &str) -> Option<String> {
    json_str_field(line, "error")
}
