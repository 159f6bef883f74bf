//! A blocking client for the serve protocol, hardened against the
//! network: read/write timeouts (a stalled server surfaces as a typed
//! [`ClientError::Timeout`], never a hang) and an FNV integrity check on
//! every `SUITE` body (a bit flipped in transit is rejected with the
//! expected/actual digests, never parsed).

use crate::protocol::{
    is_timeout, open_body, read_frame, read_stats, write_frame, CheckReply, CheckRequest, Progress,
    QueryReply, QueryRequest,
};
use litsynth_core::{decode_suite_body, CanonicalSuite};
use litsynth_litmus::{wire, LitmusTest, Outcome};
use std::collections::BTreeMap;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client socket knobs. Explicit fields, never environment variables.
#[derive(Clone, Debug, Default)]
pub struct ClientConfig {
    /// Read/write timeout per socket operation, in milliseconds; `0`
    /// disables timeouts (a cold query may legitimately take minutes).
    pub io_timeout_ms: u64,
}

/// Why a client call failed — the wire's failure modes kept distinct so
/// callers can retry timeouts without retrying rejections.
#[derive(Debug)]
pub enum ClientError {
    /// A socket operation exceeded [`ClientConfig::io_timeout_ms`] (the
    /// server is stalled or unreachable mid-exchange).
    Timeout(String),
    /// The server answered with an `ERR` frame.
    Server(String),
    /// The server answered with bytes that don't parse (or fail the
    /// integrity checksum).
    Protocol(String),
    /// Any other IO failure (connect refused, reset, …).
    Io(io::Error),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Timeout(op) => write!(f, "timed out: {op}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    fn from_io(e: io::Error, op: &str) -> ClientError {
        if is_timeout(&e) {
            ClientError::Timeout(op.to_string())
        } else {
            ClientError::Io(e)
        }
    }
}

/// A served suite: the reply plus the `PROGRESS` frames that streamed in
/// while it was computed (empty on a cache hit).
#[derive(Clone, Debug)]
pub struct ServedSuite {
    /// The `SUITE` reply.
    pub reply: QueryReply,
    /// Per-unit progress, in completion order.
    pub progress: Vec<Progress>,
}

impl ServedSuite {
    /// Decodes the reply's suite body back into canonical tests.
    pub fn suite(&self) -> Option<CanonicalSuite> {
        decode_suite_body(&self.reply.suite)
    }
}

/// One connection to a litsynth-serve server. Queries are synchronous;
/// the connection can be reused for any number of them.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects with default knobs (no timeouts).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_with(addr, &ClientConfig::default())
    }

    /// Connects under `cfg`: the socket gets `cfg`'s read/write timeouts.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        cfg: &ClientConfig,
    ) -> Result<Client, ClientError> {
        let writer = TcpStream::connect(addr).map_err(|e| ClientError::from_io(e, "connect"))?;
        writer.set_nodelay(true).map_err(ClientError::Io)?;
        if cfg.io_timeout_ms > 0 {
            let t = Some(Duration::from_millis(cfg.io_timeout_ms));
            writer.set_read_timeout(t).map_err(ClientError::Io)?;
            writer.set_write_timeout(t).map_err(ClientError::Io)?;
        }
        let reader = BufReader::new(writer.try_clone().map_err(ClientError::Io)?);
        Ok(Client { reader, writer })
    }

    fn expect_frame(&mut self) -> Result<(String, String), ClientError> {
        match read_frame(&mut self.reader) {
            Ok(Some(frame)) => Ok(frame),
            Ok(None) => Err(ClientError::Protocol(
                "server closed the connection mid-exchange".to_string(),
            )),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                Err(ClientError::Protocol(e.to_string()))
            }
            Err(e) => Err(ClientError::from_io(e, "waiting for a reply frame")),
        }
    }

    fn send(&mut self, verb: &str, body: &str) -> Result<(), ClientError> {
        write_frame(&mut self.writer, verb, body)
            .map_err(|e| ClientError::from_io(e, "sending a frame"))
    }

    /// Round-trips a `PING`.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send("PING", "")?;
        match self.expect_frame()? {
            (verb, _) if verb == "PONG" => Ok(()),
            (verb, body) => Err(ClientError::Protocol(format!(
                "expected PONG, got {verb} {body:?}"
            ))),
        }
    }

    /// Sends a query and blocks until the `SUITE` reply, collecting any
    /// streamed `PROGRESS` frames along the way. The suite body's
    /// integrity trailer is verified before anything is parsed.
    pub fn query(&mut self, req: &QueryRequest) -> Result<ServedSuite, ClientError> {
        self.send("QUERY", &req.to_body())?;
        let mut progress = Vec::new();
        loop {
            let (verb, body) = self.expect_frame()?;
            match verb.as_str() {
                "PROGRESS" => {
                    progress.push(Progress::from_body(&body).map_err(ClientError::Protocol)?)
                }
                "SUITE" => {
                    let payload = open_body(&body).map_err(ClientError::Protocol)?;
                    let reply = QueryReply::from_body(payload).map_err(ClientError::Protocol)?;
                    return Ok(ServedSuite { reply, progress });
                }
                "ERR" => return Err(ClientError::Server(body)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected frame {other} mid-query"
                    )))
                }
            }
        }
    }

    /// Asks the server whether `outcome` is observable on `test` under
    /// the model named `model`, encoding the test over the wire format.
    /// The verdict body's integrity trailer is verified before parsing.
    pub fn check(
        &mut self,
        model: &str,
        test: &LitmusTest,
        outcome: &Outcome,
    ) -> Result<CheckReply, ClientError> {
        self.check_raw(&CheckRequest {
            model: model.to_string(),
            test: wire::encode(test, outcome),
        })
    }

    /// [`Client::check`] with a pre-built request (e.g. replaying stored
    /// wire text without re-encoding).
    pub fn check_raw(&mut self, req: &CheckRequest) -> Result<CheckReply, ClientError> {
        self.send("CHECK", &req.to_body())?;
        match self.expect_frame()? {
            (verb, body) if verb == "VERDICT" => {
                let payload = open_body(&body).map_err(ClientError::Protocol)?;
                CheckReply::from_body(payload).map_err(ClientError::Protocol)
            }
            (verb, body) if verb == "ERR" => Err(ClientError::Server(body)),
            (verb, body) => Err(ClientError::Protocol(format!(
                "expected VERDICT, got {verb} {body:?}"
            ))),
        }
    }

    /// Fetches the server's counters as a name → value map.
    pub fn stats(&mut self) -> Result<BTreeMap<String, u64>, ClientError> {
        self.send("STATS", "")?;
        let (verb, body) = self.expect_frame()?;
        if verb != "STATS" {
            return Err(ClientError::Protocol(format!("expected STATS, got {verb}")));
        }
        read_stats(&body).map_err(ClientError::Protocol)
    }
}
