//! The benchmark's own line-protocol client: one blocking `TcpStream`
//! that the lock-step and the windowed-pipeline phases both drive, plus
//! the response log the correctness check compares.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
    line: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // One small line per request: without this, Nagle holds each
        // request back for the peer's delayed ACK.
        stream.set_nodelay(true)?;
        let reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
        Ok(Self {
            stream,
            reader,
            out: Vec::new(),
            line: Vec::new(),
        })
    }

    /// Writes one request line in a single write.
    pub fn send(&mut self, request: &str) -> io::Result<()> {
        self.out.clear();
        self.out.extend_from_slice(request.as_bytes());
        self.out.push(b'\n');
        self.stream.write_all(&self.out)
    }

    /// Reads the next response line, without its newline.
    pub fn recv(&mut self) -> io::Result<&[u8]> {
        self.line.clear();
        self.reader.read_until(b'\n', &mut self.line)?;
        if self.line.pop() != Some(b'\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            ));
        }
        Ok(&self.line)
    }
}

/// Every response received, in order: its digest, and whether it
/// answered `"ok":true`.
#[derive(Default)]
pub struct Log {
    pub digests: Vec<u64>,
    pub ok: Vec<bool>,
}

impl Log {
    pub fn record(&mut self, response: &[u8]) {
        self.ok.push(response.starts_with(br#"{"ok":true"#));
        self.digests.push(digest(response));
    }
}

/// A word-at-a-time 64-bit hash of one response: cheap enough to run on
/// every reply inside the timed phases (a 4096-app solve reply is tens of
/// KiB), and plenty to tell two replies apart.
pub fn digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut hash = bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks of eight bytes"));
        hash = (hash ^ word).wrapping_mul(K).rotate_left(29);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    (hash ^ u64::from_le_bytes(tail)).wrapping_mul(K)
}
