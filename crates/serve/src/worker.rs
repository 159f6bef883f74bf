//! The remote worker: connects to a coordinator, leases units, runs
//! them, and ships the result bytes back.
//!
//! A worker session is `HELLO` → `LEASE lease_ms=N` (the coordinator's
//! terms) → a stream of `UNIT` assignments. For each assignment the
//! worker rebuilds the query config from the frame's suite-config text,
//! recomputes the config fingerprint, and **refuses skew**: an
//! assignment whose fingerprint this worker's code cannot reproduce is
//! `NACK`ed, never run — a mixed-version fleet degrades loudly instead
//! of corrupting suites. While a unit runs, the worker renews its lease
//! (`LEASE grant=G`) at a quarter of the lease period so long units
//! survive; a worker that stops renewing (death, stall, partition) is
//! reclaimed by the coordinator.
//!
//! Lost coordinators are retried with exponential backoff plus
//! deterministic jitter. Fault injection is explicit config
//! ([`WorkerFault`], keyed by unit), covering every failure mode the
//! coordinator must survive: death mid-unit, a frame torn mid-write, a
//! stall past the lease, duplicate results, fingerprint skew, and
//! payload corruption.

use crate::models::{self, ModelOp};
use crate::protocol::{
    is_timeout, read_frame, read_lease_terms, renewal_body, seal_unit_done, write_frame, Nack,
    UnitAssign,
};
use litsynth_core::{config_fingerprint, parse_suite_config, synthesize_axiom, SynthResult};
use litsynth_litmus::SplitMix64;
use litsynth_models::MemoryModel;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// What an injected worker fault does when its unit arrives.
#[derive(Clone, Debug)]
pub enum FaultKind {
    /// Die mid-unit: close the connection without replying and end the
    /// worker (the process-kill failure mode).
    ExitMidUnit,
    /// Tear the `UNITDONE` mid-frame: write half the bytes, then close.
    DropMidFrame,
    /// Stall past the lease: suppress renewals and sleep this many
    /// milliseconds before running (the reply arrives under a reclaimed
    /// grant and must be rejected as stale).
    StallMs(u64),
    /// Send the (valid) `UNITDONE` twice.
    DuplicateDone,
    /// Encode the payload under a flipped config fingerprint.
    WrongFingerprint,
    /// Flip a payload byte after sealing (checksum-trailer mismatch).
    CorruptBody,
}

/// One-shot fault injection: fires the first time a unit with this key
/// is assigned, then the worker behaves normally.
#[derive(Clone, Debug)]
pub struct WorkerFault {
    /// The unit key to fire on, e.g. `tso/causality/3`.
    pub key: String,
    /// What to do.
    pub kind: FaultKind,
}

/// First reconnect delay after a lost coordinator, in milliseconds.
const CONNECT_BACKOFF_MS: u64 = 50;
/// Reconnect delay cap, in milliseconds.
const CONNECT_BACKOFF_MAX_MS: u64 = 2_000;

/// Worker knobs. Explicit fields, never environment variables.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Solver threads per unit (byte-identity-preserving).
    pub unit_threads: usize,
    /// Cube-split bits per unit (byte-identity-preserving).
    pub cube_bits: usize,
    /// Seed for the deterministic reconnect jitter.
    pub jitter_seed: u64,
    /// Injected fault, if any (tests only).
    pub fault: Option<WorkerFault>,
}

impl Default for WorkerConfig {
    fn default() -> WorkerConfig {
        WorkerConfig {
            unit_threads: 1,
            cube_bits: 0,
            jitter_seed: 1,
            fault: None,
        }
    }
}

/// Runs a worker against `addr` until `stop` is set or a fatal injected
/// fault ends it. Lost connections reconnect with exponential backoff
/// plus jitter; a coordinator that is simply down keeps being retried.
pub fn run_worker(addr: &str, cfg: &WorkerConfig, stop: &AtomicBool) {
    let mut rng = SplitMix64::new(cfg.jitter_seed);
    let mut backoff = CONNECT_BACKOFF_MS;
    let mut fault = cfg.fault.clone();
    while !stop.load(Ordering::SeqCst) {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                let alive = session(stream, cfg, &mut fault, stop);
                backoff = CONNECT_BACKOFF_MS;
                if !alive {
                    return; // injected death: stay dead, like a real kill
                }
            }
            Err(_) => {
                backoff = (backoff * 2).min(CONNECT_BACKOFF_MAX_MS);
            }
        }
        let jitter = rng.next_u64() % (backoff / 2 + 1);
        let mut slept = 0;
        while slept < backoff + jitter {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
            slept += 10;
        }
    }
}

/// One registered session. Returns `false` when an injected
/// [`FaultKind::ExitMidUnit`] killed the worker for good.
fn session(
    stream: TcpStream,
    cfg: &WorkerConfig,
    fault: &mut Option<WorkerFault>,
    stop: &AtomicBool,
) -> bool {
    let _ = stream.set_nodelay(true);
    if stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .is_err()
    {
        return true;
    }
    let Ok(mut writer) = stream.try_clone() else {
        return true;
    };
    let mut reader = BufReader::new(stream);
    if write_frame(&mut writer, "HELLO", "").is_err() {
        return true;
    }
    // The coordinator's first frame is the lease terms.
    let lease_ms = loop {
        match read_frame(&mut reader) {
            Ok(Some((verb, body))) if verb == "LEASE" => {
                let Ok(ms) = read_lease_terms(&body) else {
                    return true;
                };
                break ms.max(1);
            }
            Ok(Some(_)) | Ok(None) => return true,
            Err(e) if is_timeout(&e) => {
                if stop.load(Ordering::SeqCst) {
                    return true;
                }
            }
            Err(_) => return true,
        }
    };
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(f)) => f,
            Ok(None) => return true,
            Err(e) if is_timeout(&e) => {
                if stop.load(Ordering::SeqCst) {
                    return true;
                }
                continue;
            }
            Err(_) => return true,
        };
        match frame.0.as_str() {
            "UNIT" => {
                let Ok(assign) = UnitAssign::from_body(&frame.1) else {
                    return true;
                };
                let fired = match fault {
                    Some(f) if f.key == assign.key => fault.take(),
                    _ => None,
                };
                if !run_assignment(&mut writer, &assign, cfg, fired, lease_ms, stop) {
                    return false;
                }
            }
            "ERR" => {} // advisory (e.g. a rejected result); keep serving
            "PING" => {
                let _ = write_frame(&mut writer, "PONG", "");
            }
            _ => return true,
        }
    }
}

/// Rebuilds and runs one assignment, renewing the lease while it
/// computes, and ships the sealed result (or a `NACK`). Returns `false`
/// only for [`FaultKind::ExitMidUnit`].
fn run_assignment(
    writer: &mut TcpStream,
    assign: &UnitAssign,
    cfg: &WorkerConfig,
    fault: Option<WorkerFault>,
    lease_ms: u64,
    stop: &AtomicBool,
) -> bool {
    let kind = fault.map(|f| f.kind);
    if matches!(kind, Some(FaultKind::ExitMidUnit)) {
        return false;
    }
    if let Some(FaultKind::StallMs(ms)) = kind {
        // No renewals while stalled: the coordinator's lease must expire.
        let mut slept = 0;
        while slept < ms {
            if stop.load(Ordering::SeqCst) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(20));
            slept += 20;
        }
    }
    let outcome = run_with_renewals(
        writer,
        assign,
        cfg,
        lease_ms,
        !matches!(kind, Some(FaultKind::StallMs(_))),
    );
    let result = match outcome {
        Ok(r) => r,
        Err(reason) => {
            let nack = Nack {
                key: assign.key.clone(),
                grant: assign.grant,
                reason,
            };
            let _ = write_frame(writer, "NACK", &nack.to_body());
            return true;
        }
    };
    let fingerprint = match kind {
        Some(FaultKind::WrongFingerprint) => assign.fingerprint ^ 1,
        _ => assign.fingerprint,
    };
    let mut sealed = seal_unit_done(assign, fingerprint, &result);
    if matches!(kind, Some(FaultKind::CorruptBody)) {
        // Flip one payload byte; the `%%` test separator is always there.
        sealed = sealed.replacen("%%", "%$", 1);
    }
    if matches!(kind, Some(FaultKind::DropMidFrame)) {
        // Tear the frame mid-body: header plus half the payload, then
        // hang up. The coordinator must reclaim, never merge.
        let torn = format!("UNITDONE {}\n{}", sealed.len(), &sealed[..sealed.len() / 2]);
        let _ = writer.write_all(torn.as_bytes());
        let _ = writer.flush();
        let _ = writer.shutdown(std::net::Shutdown::Both);
        return true;
    }
    let _ = write_frame(writer, "UNITDONE", &sealed);
    if matches!(kind, Some(FaultKind::DuplicateDone)) {
        let _ = write_frame(writer, "UNITDONE", &sealed);
    }
    true
}

struct RunAssign<'a> {
    assign: &'a UnitAssign,
    cfg: &'a WorkerConfig,
}

impl ModelOp for RunAssign<'_> {
    type Out = Result<SynthResult, String>;
    fn run<M: MemoryModel + Sync>(self, model: &M) -> Self::Out {
        let a = self.assign;
        let axiom = models::resolve_axiom(model, &a.axiom)?;
        let sc = parse_suite_config(&a.config)?
            .with_threads(self.cfg.unit_threads)
            .with_cube_bits(self.cfg.cube_bits);
        let local = config_fingerprint(model.name(), axiom, &sc);
        if local != a.fingerprint {
            return Err(format!(
                "config fingerprint mismatch: assigned {:016x}, this worker computes {local:016x}",
                a.fingerprint
            ));
        }
        let run = || synthesize_axiom(model, axiom, &sc);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .map_err(|_| format!("unit {} panicked on this worker", a.key))
    }
}

/// Runs the unit on a helper thread while this thread renews the lease
/// every quarter-period, so a long unit on a healthy worker is never
/// spuriously reclaimed.
fn run_with_renewals(
    writer: &mut TcpStream,
    assign: &UnitAssign,
    cfg: &WorkerConfig,
    lease_ms: u64,
    renew: bool,
) -> Result<SynthResult, String> {
    let renew_every = Duration::from_millis((lease_ms / 4).max(1));
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let _ = tx.send(
                models::dispatch(&assign.model, RunAssign { assign, cfg }).unwrap_or_else(Err),
            );
        });
        loop {
            match rx.recv_timeout(renew_every) {
                Ok(out) => return out,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if renew {
                        let _ = write_frame(writer, "LEASE", &renewal_body(assign.grant));
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(format!("unit {} runner vanished", assign.key));
                }
            }
        }
    })
}

/// An in-process worker for tests: a thread running [`run_worker`] with
/// a stop flag. [`WorkerHandle::stop`] joins it.
pub struct WorkerHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl WorkerHandle {
    /// Spawns a worker thread against `addr`.
    pub fn spawn(addr: String, cfg: WorkerConfig) -> WorkerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = stop.clone();
            std::thread::spawn(move || run_worker(&addr, &cfg, &stop))
        };
        WorkerHandle {
            stop,
            thread: Some(thread),
        }
    }

    /// Signals the worker to stop and joins it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
