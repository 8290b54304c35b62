//! The client half of the wire protocol.
//!
//! [`Client::connect`] performs the versioned handshake and then offers
//! two submission styles:
//!
//! * **synchronous** — [`Client::submit`] sends one batch and waits for
//!   its acknowledgement (simplest, one round-trip per batch);
//! * **pipelined** — [`Client::send`] queues frames without waiting;
//!   [`Client::wait_acks`] collects the outstanding acknowledgements in
//!   order. Pipelining keeps the socket and the ingress busy at the same
//!   time, which is what the repository benchmark's `serve-pipelined`
//!   workload measures.
//!
//! Any server-side rejection arrives as a [`Message::Error`] frame and
//! surfaces as an `io::Error` of kind `Other` whose text is the server's
//! message; the server closes the connection afterwards, matching the
//! protocol's reject-and-close rule.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use otc_core::request::Request;
use otc_obs::MetricsSnapshot;

use crate::wire::{self, Message, ServeStats, WIRE_VERSION};

/// A connected wire-protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    universe: u32,
    shards: u32,
    /// Submits sent but not yet acknowledged (pipelining depth).
    inflight: usize,
}

impl Client {
    /// Connects and performs the handshake.
    ///
    /// # Errors
    /// Connection errors; `InvalidData` if the server speaks a different
    /// protocol or rejects the handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        let mut client = Self {
            reader,
            writer,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            universe: 0,
            shards: 0,
            inflight: 0,
        };
        wire::write_message(
            &mut client.writer,
            &Message::Hello { version: WIRE_VERSION },
            &mut client.wbuf,
        )?;
        client.writer.flush()?;
        match client.read_reply()? {
            Message::HelloAck { version: WIRE_VERSION, universe, shards } => {
                client.universe = universe;
                client.shards = shards;
                Ok(client)
            }
            Message::HelloAck { version, .. } => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("server speaks wire version {version}, this client {WIRE_VERSION}"),
            )),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected HelloAck, got opcode {:#04x}", other.opcode()),
            )),
        }
    }

    /// The service's global node-id universe (from the handshake).
    #[must_use]
    pub fn universe(&self) -> u32 {
        self.universe
    }

    /// The service's shard count (from the handshake).
    #[must_use]
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Submits sent but not yet acknowledged.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Reads one reply frame, translating `Error` frames into
    /// `io::Error`s (kind `Other`, the server's message as text).
    fn read_reply(&mut self) -> io::Result<Message> {
        match wire::read_message(&mut self.reader, &mut self.rbuf)? {
            Some(Message::Error { message }) => Err(io::Error::other(message)),
            Some(msg) => Ok(msg),
            None => {
                Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection"))
            }
        }
    }

    /// Queues one `Submit` frame **without waiting** for its
    /// acknowledgement (pipelining). Pair with [`Client::wait_acks`].
    /// Encodes straight from the slice ([`wire::encode_submit`]) — no
    /// per-batch copy.
    ///
    /// # Errors
    /// Socket write errors.
    pub fn send(&mut self, requests: &[Request]) -> io::Result<()> {
        self.wbuf.clear();
        wire::encode_submit(&mut self.wbuf, requests);
        self.writer.write_all(&self.wbuf)?;
        self.inflight += 1;
        Ok(())
    }

    /// Flushes queued frames to the socket.
    ///
    /// # Errors
    /// Socket write errors.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Collects every outstanding acknowledgement (flushing first) and
    /// returns the total number of requests the server accepted.
    ///
    /// # Errors
    /// Socket errors, and the server's message if any batch was
    /// rejected.
    pub fn wait_acks(&mut self) -> io::Result<u64> {
        self.flush()?;
        let mut accepted = 0;
        while self.inflight > 0 {
            match self.read_reply()? {
                Message::Ack { accepted: n } => {
                    self.inflight -= 1;
                    accepted += n;
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("expected Ack, got opcode {:#04x}", other.opcode()),
                    ));
                }
            }
        }
        Ok(accepted)
    }

    /// Submits one batch synchronously and returns the accepted count.
    ///
    /// # Errors
    /// Socket errors; the server's message if the batch was rejected
    /// (atomically — nothing from it was applied).
    pub fn submit(&mut self, requests: &[Request]) -> io::Result<u64> {
        self.send(requests)?;
        self.wait_acks()
    }

    /// Fetches the service's cumulative executed-cost counters.
    ///
    /// # Errors
    /// Socket errors; pending pipelined acknowledgements are collected
    /// first.
    pub fn stats(&mut self) -> io::Result<ServeStats> {
        self.wait_acks()?;
        wire::write_message(&mut self.writer, &Message::Stats, &mut self.wbuf)?;
        self.writer.flush()?;
        match self.read_reply()? {
            Message::StatsReply(s) => Ok(s),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected StatsReply, got opcode {:#04x}", other.opcode()),
            )),
        }
    }

    /// Scrapes the service's wall-clock metrics surface as the raw
    /// canonical-JSON exposition ([`otc_obs::expo`]). A metrics-off
    /// server answers with the valid empty exposition — scraping is
    /// always safe, live, and never perturbs results (invariant #8).
    ///
    /// # Errors
    /// Socket errors; pending pipelined acknowledgements are collected
    /// first.
    pub fn scrape_json(&mut self) -> io::Result<String> {
        self.wait_acks()?;
        wire::write_message(&mut self.writer, &Message::Metrics, &mut self.wbuf)?;
        self.writer.flush()?;
        match self.read_reply()? {
            Message::MetricsReply { json } => Ok(json),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected MetricsReply, got opcode {:#04x}", other.opcode()),
            )),
        }
    }

    /// Scrapes the service's wall-clock metrics surface, parsed back
    /// into a typed [`MetricsSnapshot`] (see [`Client::scrape_json`] for
    /// the raw exposition and the invariant-#8 guarantees).
    ///
    /// # Errors
    /// Socket errors; `InvalidData` if the exposition does not parse
    /// (a server/client version skew).
    pub fn scrape(&mut self) -> io::Result<MetricsSnapshot> {
        let json = self.scrape_json()?;
        MetricsSnapshot::from_json(&json).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad metrics exposition: {e}"))
        })
    }

    /// Barrier: returns once everything accepted by the service so far
    /// (from any client) has been executed by the shard workers.
    ///
    /// # Errors
    /// Socket errors; pending acknowledgements are collected first.
    pub fn drain(&mut self) -> io::Result<()> {
        self.wait_acks()?;
        wire::write_message(&mut self.writer, &Message::Drain, &mut self.wbuf)?;
        self.writer.flush()?;
        match self.read_reply()? {
            Message::Ack { .. } => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected Ack, got opcode {:#04x}", other.opcode()),
            )),
        }
    }

    /// Graceful goodbye: waits for outstanding acknowledgements, tells
    /// the server, and closes the connection.
    ///
    /// # Errors
    /// Socket errors while closing.
    pub fn bye(mut self) -> io::Result<()> {
        self.wait_acks()?;
        wire::write_message(&mut self.writer, &Message::Bye, &mut self.wbuf)?;
        self.writer.flush()?;
        match self.read_reply()? {
            Message::Ack { .. } => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected Ack, got opcode {:#04x}", other.opcode()),
            )),
        }
    }
}
