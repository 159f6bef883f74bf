//! The wire protocol: length-prefixed text frames.
//!
//! Every frame is `"<VERB> <len>\n"` followed by exactly `len` bytes of
//! UTF-8 body. Verbs:
//!
//! | verb       | direction | body                                         |
//! |------------|-----------|----------------------------------------------|
//! | `QUERY`    | c → s     | a [`QueryRequest`]                           |
//! | `PROGRESS` | s → c     | a [`Progress`]: one completed unit           |
//! | `SUITE`    | s → c     | [`QueryReply`] header, blank line, suite     |
//! | `ERR`      | s → c     | human-readable error text                    |
//! | `PING`     | c → s     | empty                                        |
//! | `PONG`     | s → c     | empty                                        |
//! | `STATS`    | both      | empty request; `name=value` counters back    |
//! | `HELLO`    | w → c     | empty: remote-worker registration            |
//! | `LEASE`    | c → w     | lease terms on registration: `lease_ms`      |
//! | `LEASE`    | w → c     | renewal of a running unit's lease: `grant`   |
//! | `UNIT`     | c → w     | a [`UnitAssign`]: one leased unit to run     |
//! | `UNITDONE` | w → c     | the unit's result header, blank line, suite  |
//! | `NACK`     | w → c     | a [`Nack`]: the worker declines the unit     |
//! | `CHECK`    | c → s     | a [`CheckRequest`]: model + witness to judge |
//! | `VERDICT`  | s → c     | a [`CheckReply`]: the consistency verdict    |
//!
//! (`c` = client, `s` = server, `w` = remote worker, and the coordinator
//! is the server end of a worker connection.)
//!
//! This module alone knows how a body is laid out. Every header is
//! `key=value` lines read by one field reader: a body carries each field
//! of its message exactly once and nothing else, so a line without `=` or
//! a repeated, missing or unknown key is an error naming the message.
//! `STATS` is the one open list: any counter names, each once.
//!
//! The suite section of a `SUITE` (and `UNITDONE`) frame is exactly
//! [`litsynth_core::encode_suite_body`] — the same format the journal
//! stores — so a served suite can be byte-compared against a direct
//! [`litsynth_core::synthesize_union_up_to`] run without re-parsing.
//!
//! `SUITE`, `VERDICT` and `UNITDONE` bodies additionally carry an FNV-1a
//! integrity trailer ([`seal_body`]/[`open_body`]): journal entries
//! already checksum their contents, but the wire did not, and a
//! result-bearing frame that arrives bit-flipped must be rejected (with an
//! `ERR` naming the expected/actual digest), never parsed into a wrong
//! suite.

use litsynth_core::{decode_suite_body, encode_suite_body, fnv1a, SynthResult};
use std::collections::BTreeMap;
use std::io::{self, BufRead, ErrorKind, Read, Write};
use std::str::FromStr;

/// Frames larger than this are rejected before the body is read, so a
/// corrupt or hostile length prefix can't trigger a giant allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// The cap on a frame header's bytes, which a verb, a space, 20 digits and
/// `\n` fit well within: a peer that sends no newline is cut off here.
const MAX_HEADER: u64 = 64;

/// Writes one `"<verb> <len>\n<body>"` frame and flushes. The frame is
/// composed first and written in one call — on an unbuffered TCP stream,
/// header and body as separate small writes trip Nagle/delayed-ACK
/// stalls that dwarf a warm query's actual service time.
pub fn write_frame(w: &mut impl Write, verb: &str, body: &str) -> io::Result<()> {
    w.write_all(format!("{verb} {}\n{body}", body.len()).as_bytes())?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean EOF (peer closed between
/// frames); anything malformed is an [`io::ErrorKind::InvalidData`].
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Option<(String, String)>> {
    let mut header = Vec::new();
    if r.by_ref().take(MAX_HEADER).read_until(b'\n', &mut header)? == 0 {
        return Ok(None);
    }
    let bad = |what: &str| io::Error::new(ErrorKind::InvalidData, what.to_string());
    let header = header
        .strip_suffix(b"\n")
        .ok_or_else(|| bad("frame header has no newline within 64 bytes"))?;
    let (verb, len) = std::str::from_utf8(header)
        .ok()
        .and_then(|h| h.split_once(' '))
        .ok_or_else(|| bad("frame header is not `VERB len`"))?;
    if verb.is_empty() || !verb.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(bad("frame verb must be ASCII uppercase"));
    }
    let len: usize = len
        .parse()
        .map_err(|_| bad("frame length is not a number"))?;
    if len > MAX_FRAME {
        return Err(bad("frame exceeds MAX_FRAME"));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad("frame body is not UTF-8"))?;
    Ok(Some((verb.to_string(), body)))
}

/// `true` for the error a socket read or write timeout raises
/// (`WouldBlock` on Unix, `TimedOut` on Windows).
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Appends the FNV-1a integrity trailer to a result-bearing frame body
/// (`SUITE`/`VERDICT`/`UNITDONE`): one final `#fnv=<16 hex digits>` line
/// over every byte before it. [`open_body`] verifies and strips it.
pub fn seal_body(body: &str) -> String {
    format!("{body}#fnv={:016x}\n", fnv1a(body.as_bytes()))
}

/// Verifies and strips a [`seal_body`] trailer, returning the payload.
/// A missing trailer or a digest mismatch is an `Err` naming the expected
/// (sender-declared) and actual (received-payload) digests — the caller
/// rejects the frame rather than merging a corrupt result.
pub fn open_body(sealed: &str) -> Result<&str, String> {
    let at = sealed
        .rfind("#fnv=")
        .ok_or_else(|| "body has no #fnv integrity trailer".to_string())?;
    if at != 0 && !sealed[..at].ends_with('\n') {
        return Err("#fnv integrity trailer is not on its own line".to_string());
    }
    let (payload, trailer) = sealed.split_at(at);
    let hex = trailer
        .strip_prefix("#fnv=")
        .expect("found by rfind above")
        .trim_end_matches('\n');
    let expected = u64::from_str_radix(hex, 16)
        .map_err(|_| format!("#fnv trailer digest {hex:?} is not 16 hex digits"))?;
    let actual = fnv1a(payload.as_bytes());
    if expected != actual {
        return Err(format!(
            "integrity checksum mismatch: expected {expected:016x}, actual {actual:016x}"
        ));
    }
    Ok(payload)
}

/// Splits one `key=value` line at its first `=`: the one place a body
/// line is split.
fn split_field<'a>(what: &str, line: &'a str) -> Result<(&'a str, &'a str), String> {
    line.split_once('=')
        .ok_or_else(|| format!("{what} line {line:?} is not key=value"))
}

/// One header field of the message `what`, ready to convert.
#[derive(Clone, Copy)]
struct Field<'a> {
    what: &'static str,
    key: &'static str,
    value: &'a str,
}

impl Field<'_> {
    fn parse<T: FromStr>(self) -> Result<T, String> {
        self.value.parse().map_err(|_| self.malformed())
    }

    fn hex(self) -> Result<u64, String> {
        u64::from_str_radix(self.value, 16).map_err(|_| self.malformed())
    }

    fn malformed(self) -> String {
        let Field { what, key, value } = self;
        format!("{what} field {key}={value:?} is malformed")
    }
}

/// The field reader: the `key=value` lines of a `what` header, which must
/// carry each of `keys` exactly once and nothing else, in `keys` order.
/// The fields live on the stack, so reading allocates only on error.
fn read_fields<'a, const N: usize>(
    what: &'static str,
    header: &'a str,
    keys: [&'static str; N],
) -> Result<[Field<'a>; N], String> {
    let mut values = [None; N];
    for line in header.split_terminator('\n') {
        let (key, value) = split_field(what, line)?;
        let slot = keys
            .iter()
            .position(|k| *k == key)
            .ok_or_else(|| format!("unknown {what} field {key:?}"))?;
        if values[slot].replace(value).is_some() {
            return Err(format!("repeated {what} field {key:?}"));
        }
    }
    let mut fields = [Field {
        what,
        key: "",
        value: "",
    }; N];
    for ((field, key), value) in fields.iter_mut().zip(keys).zip(values) {
        field.key = key;
        field.value = value.ok_or_else(|| format!("{what} is missing the {key} field"))?;
    }
    Ok(fields)
}

/// Splits a header at its blank line into the `key=value` lines and the
/// section after them.
fn split_header<'a>(what: &str, body: &'a str) -> Result<(&'a str, &'a str), String> {
    body.split_once("\n\n")
        .ok_or_else(|| format!("{what} body has no blank line after the header"))
}

/// A comma-separated list value; empty items are dropped.
fn list<T: FromStr>(field: Field<'_>) -> Result<Vec<T>, String> {
    field
        .value
        .split(',')
        .filter(|item| !item.is_empty())
        .map(|item| item.parse().map_err(|_| field.malformed()))
        .collect()
}

/// A suite query: which model variant, which bounds, which axioms.
///
/// The model name selects the (model, relaxations) pair — relaxed
/// variants are first-class model names (`armv7` is Power with the ARMv7
/// relaxations applied), exactly as in the `experiments` harness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryRequest {
    /// Model name, lower-case: `sc`, `tso`, `power`, `armv7`, `scc`, `c11`.
    pub model: String,
    /// Smallest event bound of the sweep (≥ 2).
    pub min_bound: usize,
    /// Largest event bound of the sweep (inclusive).
    pub max_bound: usize,
    /// Axioms to synthesize; empty means every axiom of the model. Order
    /// is irrelevant — the server always runs them in model order, so two
    /// requests for the same set are the same cache entry.
    pub axioms: Vec<String>,
    /// Per-query solver time budget in milliseconds (`0` = unlimited).
    pub budget_ms: u64,
}

impl QueryRequest {
    /// A whole-model sweep request over `min_bound..=max_bound`.
    pub fn sweep(model: &str, min_bound: usize, max_bound: usize) -> QueryRequest {
        QueryRequest {
            model: model.to_string(),
            min_bound,
            max_bound,
            axioms: Vec::new(),
            budget_ms: 0,
        }
    }

    /// Serializes to `key=value` lines.
    pub fn to_body(&self) -> String {
        format!(
            "model={}\nmin_bound={}\nmax_bound={}\naxioms={}\nbudget_ms={}\n",
            self.model,
            self.min_bound,
            self.max_bound,
            self.axioms.join(","),
            self.budget_ms
        )
    }

    /// Parses `key=value` lines; a missing, unknown or repeated key and a
    /// bad number are errors (the fingerprint is a cache key — silently
    /// dropping a field could serve the wrong suite).
    pub fn from_body(body: &str) -> Result<QueryRequest, String> {
        let [model, min_bound, max_bound, axioms, budget_ms] = read_fields(
            "QUERY",
            body,
            ["model", "min_bound", "max_bound", "axioms", "budget_ms"],
        )?;
        Ok(QueryRequest {
            model: model.value.to_string(),
            min_bound: min_bound.parse()?,
            max_bound: max_bound.parse()?,
            axioms: list(axioms)?,
            budget_ms: budget_ms.parse()?,
        })
    }
}

/// A served suite: the reply header plus the suite body.
#[derive(Clone, Debug)]
pub struct QueryReply {
    /// The query's suite fingerprint (the cache key).
    pub fingerprint: u64,
    /// Number of tests in the suite.
    pub tests: usize,
    /// `true` if this reply came from the in-memory suite cache.
    pub cached: bool,
    /// Circuit→CNF compilations spent answering this query (0 on a cache
    /// hit *and* on a journal replay — the persistent tier).
    pub compilations: usize,
    /// Solver attempts retried by the resilient runner for this query.
    pub retries: u64,
    /// `true` if any unit hit its instance cap or time budget.
    pub truncated: bool,
    /// Cube workers whose every attempt failed (0 ⇒ suite is complete).
    pub degraded: usize,
    /// The suite, in [`litsynth_core::encode_suite_body`] format.
    pub suite: String,
}

impl QueryReply {
    /// Serializes as header lines, a blank line, then the suite body.
    pub fn to_body(&self) -> String {
        format!(
            "fingerprint={:016x}\ntests={}\ncached={}\ncompilations={}\nretries={}\n\
             truncated={}\ndegraded={}\n\n{}",
            self.fingerprint,
            self.tests,
            self.cached,
            self.compilations,
            self.retries,
            self.truncated,
            self.degraded,
            self.suite
        )
    }

    /// Parses a `SUITE` frame body (after [`open_body`]).
    pub fn from_body(body: &str) -> Result<QueryReply, String> {
        let (header, suite) = split_header("SUITE", body)?;
        let [fingerprint, tests, cached, compilations, retries, truncated, degraded] = read_fields(
            "SUITE",
            header,
            [
                "fingerprint",
                "tests",
                "cached",
                "compilations",
                "retries",
                "truncated",
                "degraded",
            ],
        )?;
        Ok(QueryReply {
            fingerprint: fingerprint.hex()?,
            tests: tests.parse()?,
            cached: cached.parse()?,
            compilations: compilations.parse()?,
            retries: retries.parse()?,
            truncated: truncated.parse()?,
            degraded: degraded.parse()?,
            suite: suite.to_string(),
        })
    }
}

/// One completed (axiom, bound) unit, streamed while a cold query runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Progress {
    /// The unit's query key, e.g. `tso/sc_per_loc/3`.
    pub key: String,
    /// Tests the unit contributed (pre-merge).
    pub tests: usize,
    /// `true` if the unit was replayed from the journal tier.
    pub from_journal: bool,
}

impl Progress {
    /// Serializes to `key=value` lines.
    pub fn to_body(&self) -> String {
        format!(
            "key={}\ntests={}\nfrom_journal={}\n",
            self.key, self.tests, self.from_journal
        )
    }

    /// Parses a `PROGRESS` frame body.
    pub fn from_body(body: &str) -> Result<Progress, String> {
        let [key, tests, from_journal] =
            read_fields("PROGRESS", body, ["key", "tests", "from_journal"])?;
        Ok(Progress {
            key: key.value.to_string(),
            tests: tests.parse()?,
            from_journal: from_journal.parse()?,
        })
    }
}

/// The `STATS` reply: one `name=value` line per counter, in `counters`
/// order.
pub(crate) fn stats_body(counters: &[(&str, u64)]) -> String {
    counters.iter().map(|(k, v)| format!("{k}={v}\n")).collect()
}

/// Parses a [`stats_body`] into a name → value map: any names, each once.
pub(crate) fn read_stats(body: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut stats = BTreeMap::new();
    for line in body.split_terminator('\n') {
        let (name, value) = split_field("STATS", line)?;
        let value = value
            .parse()
            .map_err(|_| format!("STATS counter {name}={value:?} is malformed"))?;
        if stats.insert(name.to_string(), value).is_some() {
            return Err(format!("repeated STATS counter {name:?}"));
        }
    }
    Ok(stats)
}

/// The coordinator's `LEASE` terms, sent once after `HELLO`.
pub(crate) fn lease_terms_body(lease_ms: u64) -> String {
    format!("lease_ms={lease_ms}\n")
}

/// Parses [`lease_terms_body`]: the lease period in milliseconds.
pub(crate) fn read_lease_terms(body: &str) -> Result<u64, String> {
    let [lease_ms] = read_fields("LEASE", body, ["lease_ms"])?;
    lease_ms.parse()
}

/// A worker's `LEASE` renewal of the unit leased under `grant`.
pub(crate) fn renewal_body(grant: u64) -> String {
    format!("grant={grant}\n")
}

/// Parses [`renewal_body`]: the renewed grant.
pub(crate) fn read_renewal(body: &str) -> Result<u64, String> {
    let [grant] = read_fields("LEASE", body, ["grant"])?;
    grant.parse()
}

/// One leased unit assignment, coordinator → worker: the unit's identity
/// (key, model, axiom, config fingerprint), its lease grant, and its
/// suite-relevant config as one [`litsynth_core::suite_config`] text, so
/// the worker can rebuild the query config, recompute the fingerprint,
/// and refuse (NACK) an assignment its code would answer differently.
/// Parallelism knobs are deliberately absent: they are the worker's own
/// business and byte-identity-preserving by construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitAssign {
    /// The unit's query key, e.g. `tso/causality/3`.
    pub key: String,
    /// The lease grant id: unique per dispatch, echoed by `UNITDONE`,
    /// `NACK`, and renewal `LEASE` frames so a stale answer from a
    /// reclaimed lease can never be mistaken for the live one.
    pub grant: u64,
    /// Request-model name, lower-case (`tso`, `armv7`, …).
    pub model: String,
    /// The query's axiom.
    pub axiom: String,
    /// The coordinator's [`litsynth_core::config_fingerprint`] for this
    /// unit — the worker must reproduce it or NACK.
    pub fingerprint: u64,
    /// The unit's [`litsynth_core::suite_config`] text (`events` is the
    /// bound), for [`litsynth_core::parse_suite_config`] on the worker.
    pub config: String,
}

impl UnitAssign {
    /// Serializes to `key=value` lines.
    pub fn to_body(&self) -> String {
        format!(
            "key={}\ngrant={}\nmodel={}\naxiom={}\nfingerprint={:016x}\nconfig={}\n",
            self.key, self.grant, self.model, self.axiom, self.fingerprint, self.config,
        )
    }

    /// Parses a `UNIT` frame body; a missing, unknown or repeated key and
    /// a bad value are errors (running a misparsed assignment would waste
    /// a lease, or worse).
    pub fn from_body(body: &str) -> Result<UnitAssign, String> {
        let [key, grant, model, axiom, fingerprint, config] = read_fields(
            "UNIT",
            body,
            ["key", "grant", "model", "axiom", "fingerprint", "config"],
        )?;
        Ok(UnitAssign {
            key: key.value.to_string(),
            grant: grant.parse()?,
            model: model.value.to_string(),
            axiom: axiom.value.to_string(),
            fingerprint: fingerprint.hex()?,
            config: config.value.to_string(),
        })
    }
}

/// The sealed `UNITDONE` body answering `assign` with `r`: the lease
/// coordinates, `config` (the fingerprint `r` was computed under),
/// `checksum` (FNV-1a of the suite section), the test count and work
/// counters, a blank line, and the suite in [`encode_suite_body`] format.
pub(crate) fn seal_unit_done(assign: &UnitAssign, config: u64, r: &SynthResult) -> String {
    let suite = encode_suite_body(&r.tests);
    seal_body(&format!(
        "key={}\ngrant={}\nconfig={config:016x}\nchecksum={:016x}\ntests={}\n\
         compilations={}\nretries={}\ntruncated={}\ndegraded={}\n\n{suite}",
        assign.key,
        assign.grant,
        fnv1a(suite.as_bytes()),
        r.tests.len(),
        r.compilations,
        r.retries,
        r.truncated,
        r.degraded,
    ))
}

/// Opens a sealed `UNITDONE` body and validates it against its lease, in
/// order: the seal and the header; the grant (another grant's answer is
/// stale, `Ok(None)`, and the live lease stays out); then the key, the
/// config fingerprint, the content checksum, the suite parse and the test
/// count. A failure is an `Err` naming what mismatched, never a merge.
pub(crate) fn open_unit_done(
    sealed: &str,
    assign: &UnitAssign,
) -> Result<Option<SynthResult>, String> {
    let (header, suite) = split_header("UNITDONE", open_body(sealed)?)?;
    let [key, grant, config, checksum, tests, compilations, retries, truncated, degraded] =
        read_fields(
            "UNITDONE",
            header,
            [
                "key",
                "grant",
                "config",
                "checksum",
                "tests",
                "compilations",
                "retries",
                "truncated",
                "degraded",
            ],
        )?;
    if grant.parse::<u64>()? != assign.grant {
        return Ok(None);
    }
    if key.value != assign.key {
        return Err(format!(
            "UNITDONE for {} while {} was leased",
            key.value, assign.key
        ));
    }
    let config = config.hex()?;
    if config != assign.fingerprint {
        return Err(format!(
            "config fingerprint mismatch: expected {:016x}, actual {config:016x}",
            assign.fingerprint
        ));
    }
    let (checksum, actual) = (checksum.hex()?, fnv1a(suite.as_bytes()));
    if checksum != actual {
        return Err(format!(
            "content checksum mismatch: expected {checksum:016x}, actual {actual:016x}"
        ));
    }
    let suite = decode_suite_body(suite).ok_or("UNITDONE suite section does not parse")?;
    let tests: usize = tests.parse()?;
    if suite.len() != tests {
        return Err(format!(
            "UNITDONE declares {tests} tests but its suite holds {}",
            suite.len()
        ));
    }
    let mut r = SynthResult::carrying(suite);
    r.compilations = compilations.parse()?;
    r.retries = retries.parse()?;
    r.truncated = truncated.parse()?;
    r.degraded = degraded.parse()?;
    Ok(Some(r))
}

/// A declined unit, worker → coordinator: the worker cannot (or will not)
/// run the assignment — unknown model or axiom, config-fingerprint skew.
/// The coordinator re-queues the unit under its attempt budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Nack {
    /// The unit's query key.
    pub key: String,
    /// The declined lease grant.
    pub grant: u64,
    /// Human-readable reason, surfaced in coordinator counters/logs.
    pub reason: String,
}

impl Nack {
    /// Serializes to `key=value` lines (the reason must be one line).
    pub fn to_body(&self) -> String {
        format!(
            "key={}\ngrant={}\nreason={}\n",
            self.key,
            self.grant,
            self.reason.replace('\n', " ")
        )
    }

    /// Parses a `NACK` frame body.
    pub fn from_body(body: &str) -> Result<Nack, String> {
        let [key, grant, reason] = read_fields("NACK", body, ["key", "grant", "reason"])?;
        Ok(Nack {
            key: key.value.to_string(),
            grant: grant.parse()?,
            reason: reason.value.to_string(),
        })
    }
}

/// A consistency query: is this (test, outcome) witness observable under
/// the named model? The test section is the
/// [`litsynth_litmus::wire`] encoding, so any client that can spell a
/// litmus test can ask without linking the synthesis engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckRequest {
    /// Model name, lower-case: `sc`, `tso`, `power`, `armv7`, `scc`, `c11`.
    pub model: String,
    /// The [`litsynth_litmus::wire::encode`] text of the test + outcome.
    pub test: String,
}

impl CheckRequest {
    /// The cache fingerprint for this request: a versioned FNV-1a over
    /// the model name and the exact test bytes. Both ends compute it the
    /// same way, so a client can pre-key its own result cache.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(format!("litsynth-check v1\n{}\n{}", self.model, self.test).as_bytes())
    }

    /// Serializes: one `model=` line, a blank line, then the test text.
    pub fn to_body(&self) -> String {
        format!("model={}\n\n{}", self.model, self.test)
    }

    /// Parses a `CHECK` frame body.
    pub fn from_body(body: &str) -> Result<CheckRequest, String> {
        let (header, test) = split_header("CHECK", body)?;
        let [model] = read_fields("CHECK", header, ["model"])?;
        if model.value.is_empty() {
            return Err("CHECK request is missing the model name".to_string());
        }
        Ok(CheckRequest {
            model: model.value.to_string(),
            test: test.to_string(),
        })
    }
}

/// The server's answer to a `CHECK`: the verdict, and on an inconsistent
/// outcome with a saturation proof, the violated axiom plus the violating
/// cycle (event gids, in cycle order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckReply {
    /// The request's [`CheckRequest::fingerprint`] (the cache key).
    pub fingerprint: u64,
    /// `true` if this verdict came from the server's check cache.
    pub cached: bool,
    /// `true` iff some allowed execution matches the outcome.
    pub consistent: bool,
    /// The violated axiom, when saturation found an explicit cycle
    /// (empty when consistent, or when inconsistency was shown by
    /// exhausting the coherence extensions instead).
    pub axiom: String,
    /// The violating cycle's event gids (empty without a cycle witness).
    pub cycle: Vec<usize>,
}

impl CheckReply {
    /// Serializes to `key=value` lines.
    pub fn to_body(&self) -> String {
        verdict_body(
            self.fingerprint,
            self.cached,
            &verdict_core(self.consistent, &self.axiom, &self.cycle),
        )
    }

    /// Parses a `VERDICT` frame body (after [`open_body`]).
    pub fn from_body(body: &str) -> Result<CheckReply, String> {
        let [fingerprint, cached, consistent, axiom, cycle] = read_fields(
            "VERDICT",
            body,
            ["fingerprint", "cached", "consistent", "axiom", "cycle"],
        )?;
        Ok(CheckReply {
            fingerprint: fingerprint.hex()?,
            cached: cached.parse()?,
            consistent: consistent.parse()?,
            axiom: axiom.value.to_string(),
            cycle: list(cycle)?,
        })
    }
}

/// The part of a `VERDICT` body that depends on the request alone — the
/// server caches it and adds the per-reply lines with [`verdict_body`].
pub(crate) fn verdict_core(consistent: bool, axiom: &str, cycle: &[usize]) -> String {
    let gids: Vec<String> = cycle.iter().map(usize::to_string).collect();
    let cycle = gids.join(",");
    format!("consistent={consistent}\naxiom={axiom}\ncycle={cycle}\n")
}

/// A whole `VERDICT` body: the per-reply lines, then a [`verdict_core`].
pub(crate) fn verdict_body(fingerprint: u64, cached: bool, core: &str) -> String {
    format!("fingerprint={fingerprint:016x}\ncached={cached}\n{core}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use litsynth_core::{parse_suite_config, suite_config, synthesize_axiom, SynthConfig};
    use litsynth_litmus::{wire, SplitMix64};
    use litsynth_models::Tso;
    use std::io::BufReader;

    #[test]
    fn frames_round_trip_including_empty_and_multiline_bodies() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "PING", "").unwrap();
        write_frame(&mut buf, "SUITE", "a=1\n\nbody\nwith %% lines\n").unwrap();
        let mut r = BufReader::new(&buf[..]);
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some(("PING".to_string(), String::new()))
        );
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some((
                "SUITE".to_string(),
                "a=1\n\nbody\nwith %% lines\n".to_string()
            ))
        );
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn malformed_frames_are_rejected_not_misread() {
        for bad in [
            "PING\n",                              // no length
            "ping 0\n",                            // lower-case verb
            "QUERY x\n",                           // non-numeric length
            &format!("QUERY {}\n", MAX_FRAME + 1), // oversized
        ] {
            let mut r = BufReader::new(bad.as_bytes());
            assert!(read_frame(&mut r).is_err(), "{bad:?} must be rejected");
        }
        // Truncated body: header promises more bytes than the stream has.
        let mut r = BufReader::new(&b"SUITE 10\nabc"[..]);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn a_header_without_a_newline_is_cut_off_at_64_bytes() {
        // A peer that never sends `\n` must not grow the header: the
        // reader gives up once the cap is consumed, not at end of stream.
        let stream = vec![b'A'; 1 << 20];
        let mut rest = &stream[..];
        let err = read_frame(&mut rest).expect_err("no newline, no frame");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let consumed = stream.len() - rest.len();
        assert!(consumed <= 64, "consumed {consumed} bytes");

        // The longest legal header still fits: a verb, 20 digits, `\n`.
        let longest = format!("UNITDONE {}\n", "0".repeat(20));
        let frame = read_frame(&mut longest.as_bytes()).expect("fits the cap");
        assert_eq!(frame, Some(("UNITDONE".to_string(), String::new())));
    }

    #[test]
    fn request_and_reply_round_trip_through_their_bodies() {
        let mut req = QueryRequest::sweep("tso", 2, 4);
        req.axioms = vec!["sc_per_loc".to_string(), "causality".to_string()];
        req.budget_ms = 500;
        assert_eq!(QueryRequest::from_body(&req.to_body()), Ok(req.clone()));
        assert!(QueryRequest::from_body("model=tso\nbogus=1\n").is_err());
        assert!(
            QueryRequest::from_body("min_bound=2\n").is_err(),
            "model required"
        );

        let reply = QueryReply {
            fingerprint: 0xdead_beef_0123_4567,
            tests: 12,
            cached: true,
            compilations: 0,
            retries: 3,
            truncated: false,
            degraded: 0,
            suite: "#key k\nbody\n%%\n".to_string(),
        };
        let back = QueryReply::from_body(&reply.to_body()).unwrap();
        assert_eq!(back.fingerprint, reply.fingerprint);
        assert_eq!(back.tests, reply.tests);
        assert!(back.cached);
        assert_eq!(back.suite, reply.suite);

        let p = Progress {
            key: "tso/causality/3".to_string(),
            tests: 2,
            from_journal: true,
        };
        assert_eq!(Progress::from_body(&p.to_body()), Ok(p));
    }

    fn assignment() -> UnitAssign {
        UnitAssign {
            key: "tso/causality/3".to_string(),
            grant: 42,
            model: "tso".to_string(),
            axiom: "causality".to_string(),
            fingerprint: 0xa99549ceee7966bf,
            config: suite_config(&SynthConfig::new(3)),
        }
    }

    #[test]
    fn remote_verb_bodies_round_trip_and_reject_junk() {
        let a = assignment();
        assert_eq!(UnitAssign::from_body(&a.to_body()), Ok(a.clone()));
        assert!(UnitAssign::from_body("key=k\nbogus=1\n").is_err());
        assert!(
            UnitAssign::from_body("grant=1\n").is_err(),
            "key/model/axiom required"
        );
        assert!(UnitAssign::from_body(&a.to_body().replace("grant=42", "grant=x")).is_err());

        let n = Nack {
            key: a.key.clone(),
            grant: 9,
            reason: "fingerprint skew".to_string(),
        };
        assert_eq!(Nack::from_body(&n.to_body()), Ok(n.clone()));
        let folded = Nack {
            reason: "two\nlines".to_string(),
            ..n.clone()
        };
        assert_eq!(
            Nack::from_body(&folded.to_body()).unwrap().reason,
            "two lines",
            "newlines in reasons must fold to keep the body parseable"
        );
        assert!(Nack::from_body("key=k\nwhat=1\n").is_err());

        assert_eq!(read_lease_terms(&lease_terms_body(400)), Ok(400));
        assert_eq!(read_renewal(&renewal_body(42)), Ok(42));
        assert!(read_lease_terms(&renewal_body(42)).is_err());
        assert!(read_renewal("grant=1\ngrant=2\n").is_err());
    }

    #[test]
    fn unit_done_round_trips_and_rejects_stale_skewed_and_corrupt_results() {
        let a = assignment();
        let mut r = SynthResult::carrying(
            synthesize_axiom(&Tso::new(), "causality", &SynthConfig::new(3)).tests,
        );
        r.compilations = 2;
        r.retries = 3;
        r.truncated = false;
        r.degraded = 0;
        let sealed = seal_unit_done(&a, a.fingerprint, &r);
        let back = open_unit_done(&sealed, &a)
            .expect("round-trips")
            .expect("answers the live grant");
        assert_eq!(back.compilations, 2);
        assert_eq!(back.retries, 3);
        assert_eq!(
            encode_suite_body(&back.tests),
            encode_suite_body(&r.tests),
            "suite bytes survive the round-trip"
        );

        // A stale grant is ignored, not rejected: the live lease stays out.
        let stale = UnitAssign {
            grant: 43,
            ..a.clone()
        };
        assert_eq!(
            open_unit_done(&sealed, &stale).map(|r| r.is_some()),
            Ok(false)
        );

        // Config skew: a result computed under another fingerprint is
        // stale and must be rejected, naming both values.
        let skewed = seal_unit_done(&a, 0x1234, &r);
        let err = open_unit_done(&skewed, &a).expect_err("skewed result rejected");
        assert!(
            err.contains("a99549ceee7966bf") && err.contains("0000000000001234"),
            "{err}"
        );

        // Corruption: flip one byte of the suite section under a valid
        // seal — the content checksum must catch it and name the digests.
        let flipped = seal_body(&open_body(&sealed).unwrap().replacen("%%", "%$", 1));
        let err = open_unit_done(&flipped, &a).expect_err("corrupt result rejected");
        assert!(err.contains("checksum mismatch"), "{err}");
        assert!(err.contains("expected") && err.contains("actual"), "{err}");

        // A test count that does not match the suite is rejected.
        let declared = format!("tests={}\n", r.tests.len());
        let miscounted = seal_body(&open_body(&sealed).unwrap().replacen(
            &declared,
            &format!("tests={}\n", r.tests.len() + 1),
            1,
        ));
        let err = open_unit_done(&miscounted, &a).expect_err("miscount rejected");
        assert!(err.contains("declares"), "{err}");

        // Truncation: a torn body never yields a partial suite, sealed or
        // not.
        assert!(open_unit_done(&sealed[..sealed.len() / 2], &a).is_err());
        let torn = open_body(&sealed).unwrap();
        assert!(open_unit_done(&seal_body(&torn[..torn.len() / 2]), &a).is_err());
    }

    #[test]
    fn check_bodies_round_trip_and_reject_junk() {
        let req = CheckRequest {
            model: "tso".to_string(),
            test: "name=sb\nthread=store,0,relaxed,system\n".to_string(),
        };
        assert_eq!(CheckRequest::from_body(&req.to_body()), Ok(req.clone()));
        assert_eq!(req.fingerprint(), req.fingerprint(), "stable key");
        assert_ne!(
            req.fingerprint(),
            CheckRequest {
                model: "sc".to_string(),
                ..req.clone()
            }
            .fingerprint(),
            "model is part of the key"
        );
        assert!(CheckRequest::from_body("model=tso\nname=x\n").is_err());
        assert!(CheckRequest::from_body("model=\n\nname=x\n").is_err());

        let reply = CheckReply {
            fingerprint: 0x0123_4567_89ab_cdef,
            cached: true,
            consistent: false,
            axiom: "sc_per_loc".to_string(),
            cycle: vec![0, 3, 1],
        };
        assert_eq!(CheckReply::from_body(&reply.to_body()), Ok(reply.clone()));
        let empty = CheckReply {
            fingerprint: 1,
            cached: false,
            consistent: true,
            axiom: String::new(),
            cycle: Vec::new(),
        };
        assert_eq!(CheckReply::from_body(&empty.to_body()), Ok(empty));
        assert!(CheckReply::from_body("consistent=yes\n").is_err());
        assert!(CheckReply::from_body("cycle=1,x\n").is_err());
        assert!(CheckReply::from_body("bogus=1\n").is_err());
    }

    #[test]
    fn sealed_bodies_detect_bit_flips() {
        let body = "#key k\nPo R x 0 | W y 1\n%%\n";
        let sealed = seal_body(body);
        assert_eq!(open_body(&sealed), Ok(body));

        // Flip one payload bit: the digest in the trailer no longer matches.
        let flipped = sealed.replacen("%%", "%$", 1);
        let err = open_body(&flipped).unwrap_err();
        assert!(
            err.contains("checksum mismatch") && err.contains("expected"),
            "{err}"
        );

        // Corrupt the trailer itself.
        assert!(open_body(body).is_err(), "missing trailer rejected");
        let bad_hex = sealed.replace("#fnv=", "#fnv=zz");
        assert!(open_body(&bad_hex).is_err());

        // Empty payload seals and opens.
        assert_eq!(open_body(&seal_body("")), Ok(""));
    }

    /// Every body kind the wire carries, by frame verb (`RENEW` is a
    /// worker's `LEASE`), plus the payloads inside them (`CONFIG`: a
    /// `UNIT`'s config text, `WIRE`: a `CHECK`'s test, `SUITEBODY`: a
    /// `SUITE`'s or `UNITDONE`'s suite section).
    const KINDS: [&str; 14] = [
        "QUERY",
        "SUITE",
        "PROGRESS",
        "STATS",
        "LEASE",
        "RENEW",
        "UNIT",
        "UNITDONE",
        "NACK",
        "CHECK",
        "VERDICT",
        "CONFIG",
        "WIRE",
        "SUITEBODY",
    ];

    /// Runs the reader of `kind` on `body` (a `UNITDONE` is sealed first
    /// and validated against `lease`).
    fn parse(kind: &str, body: &str, lease: &UnitAssign) -> Result<(), String> {
        match kind {
            "QUERY" => QueryRequest::from_body(body).map(drop),
            "SUITE" => QueryReply::from_body(body).map(drop),
            "PROGRESS" => Progress::from_body(body).map(drop),
            "STATS" => read_stats(body).map(drop),
            "LEASE" => read_lease_terms(body).map(drop),
            "RENEW" => read_renewal(body).map(drop),
            "UNIT" => UnitAssign::from_body(body).map(drop),
            "UNITDONE" => open_unit_done(&seal_body(body), lease).map(drop),
            "NACK" => Nack::from_body(body).map(drop),
            "CHECK" => CheckRequest::from_body(body).map(drop),
            "VERDICT" => CheckReply::from_body(body).map(drop),
            "CONFIG" => parse_suite_config(body).map(drop),
            "WIRE" => wire::decode(body).map(drop).map_err(|e| e.to_string()),
            "SUITEBODY" => decode_suite_body(body).map(drop).ok_or_else(String::new),
            other => unreachable!("{other}"),
        }
    }

    /// A header value: never empty, never a newline or a comma, but `=`,
    /// `|`, `%` and non-ASCII are fair game.
    fn word(rng: &mut SplitMix64) -> String {
        const PIECES: [&str; 8] = ["a", "z", "_", "/", "7", "=", "|", "é"];
        (0..rng.range(1, 6)).map(|_| *rng.choose(&PIECES)).collect()
    }

    /// A section after a blank line: anything, blank lines included.
    fn text(rng: &mut SplitMix64) -> String {
        const PIECES: [&str; 6] = ["a", "\n", "=", "%%", "é", "\n\n"];
        (0..rng.below(12)).map(|_| *rng.choose(&PIECES)).collect()
    }

    /// One random valid message of every kind in [`KINDS`], each asserted
    /// to round-trip through its reader.
    fn random_messages(
        rng: &mut SplitMix64,
        lease: &UnitAssign,
        suite: &litsynth_core::CanonicalSuite,
        wire_text: &str,
    ) -> [(&'static str, String); 14] {
        let query = QueryRequest {
            model: word(rng),
            min_bound: rng.below(9),
            max_bound: rng.below(9),
            axioms: (0..rng.below(3)).map(|_| word(rng)).collect(),
            budget_ms: rng.next_u64(),
        };
        assert_eq!(QueryRequest::from_body(&query.to_body()), Ok(query.clone()));
        let reply = QueryReply {
            fingerprint: rng.next_u64(),
            tests: rng.below(99),
            cached: rng.bool(),
            compilations: rng.below(9),
            retries: rng.next_u64(),
            truncated: rng.bool(),
            degraded: rng.below(3),
            suite: text(rng),
        };
        let back = QueryReply::from_body(&reply.to_body()).expect("SUITE round-trips");
        assert_eq!(back.to_body(), reply.to_body());
        let progress = Progress {
            key: word(rng),
            tests: rng.below(99),
            from_journal: rng.bool(),
        };
        assert_eq!(
            Progress::from_body(&progress.to_body()),
            Ok(progress.clone())
        );
        let names = ["queries", "cache_hits", "remote_nacks"];
        let counters: Vec<(&str, u64)> = names[..rng.range(1, 3)]
            .iter()
            .map(|&name| (name, rng.next_u64()))
            .collect();
        let stats = stats_body(&counters);
        let map = counters.iter().map(|&(n, v)| (n.to_string(), v)).collect();
        assert_eq!(read_stats(&stats), Ok(map));
        let (lease_ms, grant) = (rng.next_u64(), rng.next_u64());
        assert_eq!(read_lease_terms(&lease_terms_body(lease_ms)), Ok(lease_ms));
        assert_eq!(read_renewal(&renewal_body(grant)), Ok(grant));
        let mut cfg = SynthConfig::new(rng.range(2, 6));
        cfg.max_threads = rng.below(5);
        cfg.exact_canon = rng.bool();
        cfg.orphan_unconstrained = rng.bool();
        cfg.max_instances = rng.below(1 << 20);
        cfg.time_budget_ms = rng.next_u64();
        let config = suite_config(&cfg);
        let reparsed = parse_suite_config(&config).map(|c| suite_config(&c));
        assert_eq!(reparsed, Ok(config.clone()));
        let unit = UnitAssign {
            key: word(rng),
            grant,
            model: word(rng),
            axiom: word(rng),
            fingerprint: rng.next_u64(),
            config: config.clone(),
        };
        assert_eq!(UnitAssign::from_body(&unit.to_body()), Ok(unit.clone()));
        let mut result = SynthResult::carrying(suite.clone());
        result.compilations = rng.below(9);
        result.retries = rng.next_u64();
        result.truncated = rng.bool();
        result.degraded = rng.below(3);
        let done = seal_unit_done(lease, lease.fingerprint, &result);
        let back = open_unit_done(&done, lease)
            .expect("UNITDONE validates")
            .expect("answers the live grant");
        let counters = |r: &SynthResult| (r.compilations, r.retries, r.truncated, r.degraded);
        assert_eq!(counters(&back), counters(&result));
        assert_eq!(encode_suite_body(&back.tests), encode_suite_body(suite));
        let nack = Nack {
            key: word(rng),
            grant,
            reason: word(rng),
        };
        assert_eq!(Nack::from_body(&nack.to_body()), Ok(nack.clone()));
        let check = CheckRequest {
            model: word(rng),
            test: text(rng),
        };
        assert_eq!(CheckRequest::from_body(&check.to_body()), Ok(check.clone()));
        let verdict = CheckReply {
            fingerprint: rng.next_u64(),
            cached: rng.bool(),
            consistent: rng.bool(),
            axiom: if rng.bool() { word(rng) } else { String::new() },
            cycle: (0..rng.below(4)).map(|_| rng.below(9)).collect(),
        };
        assert_eq!(
            CheckReply::from_body(&verdict.to_body()),
            Ok(verdict.clone())
        );
        [
            ("QUERY", query.to_body()),
            ("SUITE", reply.to_body()),
            ("PROGRESS", progress.to_body()),
            ("STATS", stats),
            ("LEASE", lease_terms_body(lease_ms)),
            ("RENEW", renewal_body(grant)),
            ("UNIT", unit.to_body()),
            ("UNITDONE", open_body(&done).expect("sealed").to_string()),
            ("NACK", nack.to_body()),
            ("CHECK", check.to_body()),
            ("VERDICT", verdict.to_body()),
            ("CONFIG", config),
            ("WIRE", wire_text.to_string()),
            ("SUITEBODY", encode_suite_body(suite)),
        ]
    }

    /// One mutation: a bit flip, a truncation, an inserted delimiter or
    /// non-ASCII byte, a duplicated segment, or an appended unknown key.
    fn mutate(rng: &mut SplitMix64, bytes: &mut Vec<u8>) {
        const INSERTS: [&[u8]; 7] = [b"=", b"\n", b",", b"|", b"\n\n", "é".as_bytes(), b"\xff"];
        let at = rng.below(bytes.len() + 1);
        match rng.below(5) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
            1 => bytes.truncate(at),
            2 => drop(bytes.splice(at..at, rng.choose(&INSERTS).iter().copied())),
            3 => {
                let end = rng.range(at, bytes.len());
                let segment = bytes[at..end].to_vec();
                drop(bytes.splice(end..end, segment));
            }
            _ => bytes.extend_from_slice(b"zz_unknown=1\n"),
        }
    }

    #[test]
    fn seeded_fuzz_over_every_body_never_panics_and_keeps_the_field_rules() {
        let suite = synthesize_axiom(&Tso::new(), "sc_per_loc", &SynthConfig::new(2)).tests;
        let (test, outcome) = suite.values().next().expect("a non-empty suite");
        let wire_text = wire::encode(test, outcome);
        let lease = assignment();
        for seed in [1, 2, 3] {
            let mut rng = SplitMix64::new(seed);
            for _ in 0..40 {
                for (kind, body) in random_messages(&mut rng, &lease, &suite, &wire_text) {
                    // Each field exactly once, and nothing else: a repeated
                    // or unknown key is rejected (STATS names are open).
                    if !matches!(kind, "CONFIG" | "WIRE" | "SUITEBODY") {
                        let first = body.split('\n').next().expect("a first line");
                        let repeated = format!("{first}\n{body}");
                        assert!(parse(kind, &repeated, &lease).is_err(), "{repeated:?}");
                        let unknown = format!("zz_unknown=1\n{body}");
                        assert!(kind == "STATS" || parse(kind, &unknown, &lease).is_err());
                    }
                    // Mutants reach every reader, framed and bare, and
                    // must never panic.
                    for _ in 0..8 {
                        let mut bytes = body.clone().into_bytes();
                        for _ in 0..rng.range(1, 3) {
                            mutate(&mut rng, &mut bytes);
                        }
                        let mut frame = format!("{kind} {}\n", bytes.len()).into_bytes();
                        frame.extend_from_slice(&bytes);
                        if rng.bool() {
                            mutate(&mut rng, &mut frame);
                        }
                        let _ = read_frame(&mut &frame[..]);
                        let _ = read_frame(&mut &bytes[..]);
                        let text = String::from_utf8_lossy(&bytes);
                        let _ = open_body(&text);
                        let _ = open_unit_done(&text, &lease);
                        for kind in KINDS {
                            let _ = parse(kind, &text, &lease);
                        }
                    }
                }
            }
        }
    }
}
