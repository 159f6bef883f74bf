//! The wall-clock benchmark: suite synthesis sweeps and the serving
//! paths, end to end, with a traced replay that splits the time by layer.
//!
//! ```text
//! benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload prints its metrics as `name value unit` lines and, as the
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! replays the same inputs through each layer's public functions and
//! reports the per-layer metrics. The run exits non-zero when any output
//! check fails. `all` runs every workload in its own child process.
//! README.md documents the workloads and every metric.

mod procfs;
mod replay;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

/// Every workload, in the order `all` runs them.
const WORKLOADS: [&str; 5] = [
    "sweep-tso5",
    "sweep-models4",
    "sweep-tso5-cubes",
    "serve-cold",
    "serve-warm",
];

/// One run's settings, from the command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 20.0,
            trace: false,
        };
        while let Some(arg) = argv.next() {
            let mut value = |flag: &str| argv.next().ok_or(format!("{flag} needs a value"));
            match arg.as_str() {
                "--workload" => args.workload = value("--workload")?,
                "--seed" => {
                    args.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed takes a whole number".to_string())?
                }
                "--seconds" => {
                    args.seconds = value("--seconds")?
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && s.is_finite())
                        .ok_or("--seconds takes a positive number")?
                }
                "--trace" => {
                    args.trace = match value("--trace")?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_string()),
                    }
                }
                w if !w.starts_with('-') && args.workload.is_empty() => args.workload = w.into(),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be `all` or one of {}",
                WORKLOADS.join(", ")
            ));
        }
        Ok(args)
    }
}

/// One metric as printed: name, measured value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (sweep repetitions or requests).
    pub attempted: u64,
    /// Operations whose output failed a check, or that errored.
    pub failed: u64,
    /// Failed whole-run checks, one line each.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Context lines printed before the metrics (sample counts, splits).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a failed check; the run will report `correct: false`.
    pub fn fail(&mut self, what: String) {
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    fn print(&self) {
        for e in &self.errors {
            println!("error: {e}");
        }
        for n in &self.notes {
            println!("# {n}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name} {value} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The fields that follow `label` on its line of `expected.txt`.
fn pin_fields(label: &str) -> Option<Vec<&'static str>> {
    include_str!("expected.txt").lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        (fields.next()? == label).then(|| fields.collect())
    })
}

/// The pinned `(tests, FNV-1a digest of encode_suite_body)` of the suite
/// called `label` in `expected.txt`.
pub fn pinned(label: &str) -> Option<(usize, u64)> {
    match pin_fields(label)?[..] {
        [tests, digest] => Some((tests.parse().ok()?, u64::from_str_radix(digest, 16).ok()?)),
        _ => None,
    }
}

/// The pinned count called `label` in `expected.txt`.
pub fn pinned_count(label: &str) -> Option<usize> {
    match pin_fields(label)?[..] {
        [count] => count.parse().ok(),
        _ => None,
    }
}

/// How many times every workload runs its set-up; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// One timed pass over a workload's fixed list of ops: the seconds each
/// op took, in the list's order, and the pass's wall seconds, CPU seconds
/// and peak resident set size.
pub struct Pass {
    ops: Vec<f64>,
    wall: f64,
    cpu: Option<f64>,
    peak_rss_mib: Option<f64>,
}

/// Times one pass from its start.
pub struct PassTimer {
    start: Instant,
    cpu0: Option<f64>,
}

impl PassTimer {
    pub fn start() -> PassTimer {
        procfs::reset_peak_rss();
        PassTimer {
            cpu0: procfs::cpu_seconds(),
            start: Instant::now(),
        }
    }

    /// Ends the pass whose ops took `ops` seconds each.
    pub fn finish(self, ops: Vec<f64>) -> Pass {
        let wall = self.start.elapsed().as_secs_f64();
        Pass {
            ops,
            wall,
            cpu: procfs::cpu_seconds().zip(self.cpu0).map(|(c1, c0)| c1 - c0),
            peak_rss_mib: procfs::peak_rss_mib(),
        }
    }
}

/// Which of its passes a run reports for each op and for the wall and
/// CPU time of a pass.
#[derive(Clone, Copy, Debug)]
pub enum Pick {
    /// The fastest, for work that is the same in every pass: a pass can
    /// only be slowed by what else the machine runs, so the fastest is the
    /// least disturbed.
    Fastest,
    /// The median, for work that itself differs between passes (the cube
    /// sweep's search follows its threads' timing): there the fastest pass
    /// is the luckiest.
    Median,
}

impl Pick {
    fn of(self, xs: &[f64]) -> f64 {
        match self {
            Pick::Fastest => xs.iter().copied().fold(f64::INFINITY, f64::min),
            Pick::Median => stats::median(xs),
        }
    }
}

/// Each op's latency in milliseconds, picked over the passes.
///
/// # Panics
///
/// Panics unless every pass ran the same number of ops, at least one.
pub fn op_ms(passes: &[Pass], pick: Pick) -> Vec<f64> {
    let n = passes.first().map_or(0, |p| p.ops.len());
    assert!(n > 0 && passes.iter().all(|p| p.ops.len() == n));
    (0..n)
        .map(|i| {
            let ms: Vec<f64> = passes.iter().map(|p| p.ops[i] * 1e3).collect();
            pick.of(&ms)
        })
        .collect()
}

/// The end-to-end metrics every workload reports, from its set-up times
/// and its passes. `tail` is the workload's tail percentile, or `None`
/// when a pass has too few ops to support one; the tail metric then
/// repeats the median. Peak memory is the median pass's, whatever `pick`.
pub fn end_to_end(
    report: &mut Report,
    setups: &[f64],
    passes: &[Pass],
    tail: Option<f64>,
    pick: Pick,
) {
    let ms = op_ms(passes, pick);
    let n = ms.len();
    let [q1, q2, q3] = stats::quartiles(&ms);
    let supported =
        stats::highest_supported_percentile(n).map_or("none".to_string(), |p| format!("p{p}"));
    let (tail_name, tail_ms) = match tail {
        Some(p) => (format!("p{p}"), stats::percentile(&ms, p)),
        None => ("the median".to_string(), stats::median(&ms)),
    };
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    report.notes.push(format!(
        "{} passes of {n} ops over {:.3} s; each op's latency is its {} pass's; \
         op ms quartiles {q1:.4} / {q2:.4} / {q3:.4}; tail is {tail_name} (highest \
         percentile with >=10 of {n} ops beyond: {supported}); setup median of {} runs",
        passes.len(),
        walls.iter().sum::<f64>(),
        format!("{pick:?}").to_lowercase(),
        setups.len()
    ));
    report.metrics.push(("setup_s", stats::median(setups), "s"));
    report.metrics.push(("op_ms.p50", stats::median(&ms), "ms"));
    report.metrics.push(("op_ms.tail", tail_ms, "ms"));
    let cpus: Option<Vec<f64>> = passes.iter().map(|p| p.cpu).collect();
    match cpus {
        Some(cpu) => report
            .metrics
            .push(("cpu_ms_per_op", pick.of(&cpu) * 1e3 / n as f64, "ms")),
        None => report
            .notes
            .push("cpu_ms_per_op missing: no /proc".to_string()),
    }
    report
        .metrics
        .push(("ops_per_s", n as f64 / pick.of(&walls), "1/s"));
    let peaks: Option<Vec<f64>> = passes.iter().map(|p| p.peak_rss_mib).collect();
    match peaks {
        Some(mb) => report
            .metrics
            .push(("peak_rss_mib", stats::median(&mb), "MiB")),
        None => report
            .notes
            .push("peak_rss_mib missing: no /proc".to_string()),
    }
}

/// Runs every workload in a child process of this executable, passing
/// the other arguments through; fails if any child fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = 0u64;
    for w in WORKLOADS {
        println!("== {w}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            eprintln!("workload {w} failed: {status:?}");
            failed += 1;
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{}}}}",
        failed == 0,
        WORKLOADS.len()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let report = match args.workload.as_str() {
        "serve-cold" => serve::cold(&args),
        "serve-warm" => serve::warm(&args),
        name => sweep::run(sweep::workload(name), &args),
    };
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let a = parse("--workload serve-warm --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-warm", 7, 10.0, true)
        );
        assert_eq!(parse("all --seed 3").unwrap().workload, "all");
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload serve-warm --trace 2").is_err());
        assert!(parse("--workload serve-warm --seconds 0").is_err());
        assert!(parse("--workload serve-warm --seed").is_err());
        assert!(parse("").is_err());
    }

    fn pass(ops: &[f64], wall: f64, cpu: Option<f64>, peak_rss_mib: f64) -> Pass {
        Pass {
            ops: ops.to_vec(),
            wall,
            cpu,
            peak_rss_mib: Some(peak_rss_mib),
        }
    }

    #[test]
    fn end_to_end_picks_each_op_over_the_passes_and_counts_samples() {
        let passes = [
            pass(&[1.0, 4.0], 5.0, Some(6.0), 30.0),
            pass(&[2.0, 3.0], 6.0, Some(4.0), 10.0),
            pass(&[3.0, 5.0], 9.0, Some(8.0), 20.0),
        ];
        assert_eq!(op_ms(&passes, Pick::Fastest), [1000.0, 3000.0]);
        assert_eq!(op_ms(&passes, Pick::Median), [2000.0, 4000.0]);
        let metrics = |pick| {
            let mut r = Report::default();
            end_to_end(&mut r, &[0.2, 0.1, 0.3], &passes, None, pick);
            assert!(
                r.notes[0].starts_with("3 passes of 2 ops"),
                "{}",
                r.notes[0]
            );
            r.metrics.iter().map(|m| (m.0, m.1)).collect::<Vec<_>>()
        };
        assert_eq!(
            metrics(Pick::Fastest),
            [
                ("setup_s", 0.2),
                ("op_ms.p50", 2000.0),
                ("op_ms.tail", 2000.0),
                ("cpu_ms_per_op", 2000.0),
                ("ops_per_s", 2.0 / 5.0),
                ("peak_rss_mib", 20.0),
            ]
        );
        assert_eq!(
            metrics(Pick::Median),
            [
                ("setup_s", 0.2),
                ("op_ms.p50", 3000.0),
                ("op_ms.tail", 3000.0),
                ("cpu_ms_per_op", 3000.0),
                ("ops_per_s", 2.0 / 6.0),
                ("peak_rss_mib", 20.0),
            ]
        );
    }

    #[test]
    fn a_metric_without_its_reading_is_missing_not_zero() {
        let passes = [
            pass(&[1.0], 1.0, None, 5.0),
            pass(&[1.0], 1.0, Some(1.0), 5.0),
        ];
        let mut r = Report::default();
        end_to_end(&mut r, &[0.1], &passes, Some(90.0), Pick::Fastest);
        assert!(r.metrics.iter().all(|m| m.0 != "cpu_ms_per_op"));
        assert!(r
            .notes
            .iter()
            .any(|n| n.starts_with("cpu_ms_per_op missing")));
    }
}
