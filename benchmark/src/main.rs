//! The repo's benchmark: four closed-loop workloads over real TCP on
//! 127.0.0.1 with the server on the reactor, and a separate traced run for
//! the per-layer numbers. See `benchmark/README.md`.
//!
//! ```sh
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   # one run, one JSON line
//! benchmark all [--seed N] [--seconds S] [--smoke] [--out FILE] # every workload + layers
//! benchmark compare OLD.json NEW.json
//! ```
//!
//! Every repetition runs in a fresh child process (this binary re-executed
//! with `child ...`): the sandbox VM has a fast mode after idle that one
//! window, however long, can land in or out of, so each reported value is
//! the median over five fresh processes, and a fresh process gives a clean
//! `VmHWM`.

mod alloc;
mod compare;
mod host;
mod json;
mod layers;
mod names;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use json::Json;
use layers::LadderPlan;
use stats::Summary;
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Share of failed ops above which a run exits non-zero. Below it the run
/// is reported, with `correct` false if a single op failed.
const MAX_FAILED_SHARE: f64 = 0.01;

/// `--seconds` when not given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;
/// The longest `--seconds` taken: the contract's own limit on `run_seconds`.
const MAX_SECONDS: f64 = 60.0;

/// How one invocation spends its time.
#[derive(Debug, Clone, Copy)]
struct Plan {
    /// Fresh processes per workload; the reported value is their median.
    reps: usize,
    /// Measured window of one untraced repetition.
    window: Duration,
    /// Window of one repetition of the traced run's counter pass.
    counter_window: Duration,
    /// Window of the allocation-counting pass.
    alloc_window: Duration,
    ladder: LadderPlan,
}

impl Plan {
    /// Splits `seconds` of measuring over five repetitions; the traced run
    /// takes about as long: a third on counters, the rest on the ladder
    /// (8 rounds of 11 slices, plus its fixed-count items).
    fn for_seconds(seconds: f64) -> Plan {
        let part = |share: f64| Duration::from_secs_f64(seconds * share);
        Plan {
            reps: 5,
            window: part(1.0 / 5.0),
            counter_window: part(1.0 / 15.0),
            alloc_window: part(1.0 / 10.0),
            ladder: LadderPlan {
                rounds: 8,
                slice: part(1.0 / 160.0),
            },
        }
    }

    /// One repetition of one second and one ladder round: does everything
    /// once, in under 25 s, and proves nothing about speed.
    fn smoke() -> Plan {
        Plan {
            reps: 1,
            window: Duration::from_secs(1),
            counter_window: Duration::from_millis(300),
            alloc_window: Duration::from_millis(300),
            ladder: LadderPlan {
                rounds: 1,
                slice: Duration::from_millis(100),
            },
        }
    }
}

/// One workload's repetitions, summarised per metric.
struct Measured {
    attempted: u64,
    failed: u64,
    /// Every repetition's warm-up ran without a failed op and both its
    /// drains brought the object tables back to baseline.
    clean: bool,
    metrics: BTreeMap<String, Summary>,
}

impl Measured {
    fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// What the result reports: not one op failed, nothing leaked.
    fn correct(&self) -> bool {
        self.clean && self.failed == 0
    }

    /// What the exit status reports.
    fn acceptable(&self) -> bool {
        self.clean && self.failed_share() <= MAX_FAILED_SHARE
    }

    fn absorb(&mut self, other: Measured) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.clean &= other.clean;
        self.metrics.extend(other.metrics);
    }
}

/// Runs this binary as `child ARGS`, returning the JSON on the last line
/// of its standard output. The child is waited for before this returns.
fn run_child(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg("child")
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().ok_or("child printed nothing")?;
    Json::parse(last).map_err(|e| format!("child output: {e}"))
}

fn values_of(result: &Json) -> BTreeMap<String, f64> {
    let values = result.get("values").map_or(&[][..], Json::fields);
    values
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect()
}

/// A distinct, seed-determined input stream per repetition.
fn rep_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(rep as u64)
}

/// Runs `reps` fresh-process repetitions of `workload` and summarises the
/// metrics in `keep`.
fn measure(
    workload: Workload,
    seed: u64,
    reps: usize,
    window: Duration,
    count_allocs: bool,
    keep: &[&names::Metric],
) -> Result<Measured, String> {
    let mut per_metric: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut m = Measured {
        attempted: 0,
        failed: 0,
        clean: true,
        metrics: BTreeMap::new(),
    };
    for rep in 0..reps {
        let result = run_child(&[
            "rep".into(),
            workload.name().into(),
            rep_seed(seed, rep).to_string(),
            window.as_millis().to_string(),
            u8::from(count_allocs).to_string(),
        ])?;
        let count = |k| result.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        m.attempted += count("attempted");
        m.failed += count("failed");
        m.clean &= result.get("clean").and_then(Json::as_bool) == Some(true);
        for (name, value) in values_of(&result) {
            per_metric.entry(name).or_default().push(value);
        }
    }
    if let Some(ops) = per_metric.get("gen.ops_per_s") {
        let spread = Summary::of(ops).spread_pct();
        per_metric.insert("gen.rep_spread_pct".into(), vec![spread]);
    }
    for metric in keep {
        if let Some(values) = per_metric.get(metric.name) {
            m.metrics
                .insert(metric.name.to_string(), Summary::of(values));
        }
    }
    Ok(m)
}

fn end_to_end(workload: Workload, seed: u64, plan: Plan) -> Result<Measured, String> {
    let keep: Vec<_> = names::END_TO_END.iter().collect();
    measure(workload, seed, plan.reps, plan.window, false, &keep)
}

/// The workload-dependent half of the traced run: counter deltas over
/// short untraced repetitions, then one pass with allocation counting on.
fn workload_layers(workload: Workload, seed: u64, plan: Plan) -> Result<Measured, String> {
    let (counted, allocs): (Vec<_>, Vec<_>) = names::WORKLOAD_METRICS
        .iter()
        .partition(|m| !m.name.starts_with("gen.alloc"));
    let mut m = measure(
        workload,
        seed,
        plan.reps,
        plan.counter_window,
        false,
        &counted,
    )?;
    m.absorb(measure(
        workload,
        seed,
        1,
        plan.alloc_window,
        true,
        &allocs,
    )?);
    Ok(m)
}

/// The workload-independent half: ladder, pure functions, spanned calls.
fn layer_metrics(seed: u64, plan: Plan) -> Result<BTreeMap<String, Summary>, String> {
    let result = run_child(&[
        "layers".into(),
        seed.to_string(),
        plan.ladder.rounds.to_string(),
        plan.ladder.slice.as_millis().to_string(),
    ])?;
    Ok(values_of(&result)
        .into_iter()
        .map(|(k, v)| (k, Summary::of(&[v])))
        .collect())
}

fn print_table(title: &str, metrics: &BTreeMap<String, Summary>, order: &[names::Metric]) {
    println!("\n## {title}");
    for metric in order {
        if let Some(s) = metrics.get(metric.name) {
            println!(
                "{:<40} {:>14.3} {:<6} [{:.3} .. {:.3}]",
                metric.name, s.median, metric.unit, s.min, s.max
            );
        }
    }
}

/// `{"name": {"value": median, "unit": unit}}`, as the contract's last
/// line wants it.
fn contract_metrics(metrics: &BTreeMap<String, Summary>) -> Json {
    Json::obj(metrics.iter().map(|(name, s)| {
        let fields = [
            ("value", Json::Num(s.median)),
            ("unit", Json::str(names::unit_of(name))),
        ];
        (name.as_str(), Json::obj(fields))
    }))
}

/// `{"name": {"unit", "median", "min", "max", "q1", "q3"}}`, as result
/// files keep it.
fn file_metrics(metrics: &BTreeMap<String, Summary>) -> Json {
    Json::obj(metrics.iter().map(|(name, s)| {
        let fields = [
            ("unit", Json::str(names::unit_of(name))),
            ("median", Json::Num(s.median)),
            ("min", Json::Num(s.min)),
            ("max", Json::Num(s.max)),
            ("q1", Json::Num(s.q1)),
            ("q3", Json::Num(s.q3)),
        ];
        (name.as_str(), Json::obj(fields))
    }))
}

/// One run under the driver's contract: one workload, traced or not, one
/// JSON object on the last line.
fn contract_run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<bool, String> {
    let plan = Plan::for_seconds(seconds);
    let m = if traced {
        let mut m = workload_layers(workload, seed, plan)?;
        m.metrics.extend(layer_metrics(seed, plan)?);
        print_table(workload.name(), &m.metrics, &names::WORKLOAD_METRICS);
        print_table("layers", &m.metrics, &names::LAYER_METRICS);
        m
    } else {
        let m = end_to_end(workload, seed, plan)?;
        print_table(workload.name(), &m.metrics, &names::END_TO_END);
        m
    };
    println!(
        "\nattempted {} failed {} ({:.4} %)",
        m.attempted,
        m.failed,
        m.failed_share() * 100.0
    );
    let line = Json::obj([
        ("correct", Json::Bool(m.correct())),
        ("attempted", Json::Num(m.attempted as f64)),
        ("failed", Json::Num(m.failed as f64)),
        ("metrics", contract_metrics(&m.metrics)),
    ]);
    println!("{}", line.compact());
    Ok(m.acceptable())
}

fn host_probe(slice: Duration) -> Result<Json, String> {
    let result = run_child(&["host".into(), slice.as_millis().to_string()])?;
    Ok(Json::obj(
        values_of(&result)
            .into_iter()
            .map(|(k, v)| (k, Json::Num(v))),
    ))
}

/// Every workload untraced, then traced, then the layers once, with host
/// metadata: the result file `compare` reads.
fn run_all(seed: u64, seconds: f64, smoke: bool, out: Option<PathBuf>) -> Result<bool, String> {
    let plan = if smoke {
        Plan::smoke()
    } else {
        Plan {
            ladder: LadderPlan {
                rounds: 8,
                slice: Duration::from_millis(500),
            },
            ..Plan::for_seconds(seconds)
        }
    };
    let started = Instant::now();
    let probe = Duration::from_millis(if smoke { 100 } else { 500 });
    let host_before = host_probe(probe)?;
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let e2e = end_to_end(workload, seed, plan)?;
        print_table(workload.name(), &e2e.metrics, &names::END_TO_END);
        let layers = workload_layers(workload, seed, plan)?;
        print_table(
            &format!("{} (traced run)", workload.name()),
            &layers.metrics,
            &names::WORKLOAD_METRICS,
        );
        all_ok &= e2e.acceptable() && layers.acceptable();
        workloads.push((
            workload.name(),
            Json::obj([
                ("attempted", Json::Num(e2e.attempted as f64)),
                ("failed", Json::Num(e2e.failed as f64)),
                ("correct", Json::Bool(e2e.correct())),
                ("end_to_end", file_metrics(&e2e.metrics)),
                ("per_layer", file_metrics(&layers.metrics)),
            ]),
        ));
    }
    let layers = layer_metrics(seed, plan)?;
    print_table("layers", &layers, &names::LAYER_METRICS);
    let host_after = host_probe(probe)?;

    let mut host = host::metadata();
    host.extend([
        ("seed".to_string(), Json::Num(seed as f64)),
        ("smoke".to_string(), Json::Bool(smoke)),
        ("reps".to_string(), Json::Num(plan.reps as f64)),
        (
            "window_ms".to_string(),
            Json::Num(plan.window.as_millis() as f64),
        ),
        (
            "ladder_rounds".to_string(),
            Json::Num(plan.ladder.rounds as f64),
        ),
        (
            "ladder_slice_ms".to_string(),
            Json::Num(plan.ladder.slice.as_millis() as f64),
        ),
        ("before".to_string(), host_before),
        ("after".to_string(), host_after),
    ]);
    let file = Json::obj([
        ("schema", Json::str("netobj-benchmark/1")),
        ("host", Json::Obj(host)),
        ("workloads", Json::obj(workloads)),
        (
            "layers",
            Json::Arr(
                layers
                    .iter()
                    .map(|(name, s)| {
                        Json::obj([
                            ("name", Json::str(name.as_str())),
                            ("unit", Json::str(names::unit_of(name))),
                            ("value", Json::Num(s.median)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("\ntook {:.1} s", started.elapsed().as_secs_f64());
    if let Some(path) = out {
        std::fs::write(&path, file.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(all_ok)
}

/// Where trace files go: beside the binary, so inside whichever build
/// directory the checkout uses, and nowhere git looks.
fn trace_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("benchmark-trace")))
        .unwrap_or_else(|| PathBuf::from("benchmark-trace"))
}

/// The hidden half: one repetition, the layers, or a host probe, in this
/// process; prints one JSON object.
fn child(args: &[String], process_start: Instant) -> Result<(), String> {
    let arg = |i: usize| {
        args.get(i)
            .map(String::as_str)
            .ok_or("child: missing argument")
    };
    let num = |i: usize| -> Result<u64, String> {
        arg(i)?
            .parse()
            .map_err(|_| format!("child: bad number {:?}", args[i]))
    };
    let values =
        |map: BTreeMap<String, f64>| Json::obj(map.into_iter().map(|(k, v)| (k, Json::Num(v))));
    // Before the first thread is spawned, so all of them inherit it.
    host::pin_to_one_cpu()?;
    let line = match arg(0)? {
        "rep" => {
            let workload = Workload::parse(arg(1)?).ok_or("child: unknown workload")?;
            let window = Duration::from_millis(num(3)?);
            let r = workloads::run_rep(workload, num(2)?, window, num(4)? == 1, process_start)?;
            Json::obj([
                ("attempted", Json::Num(r.attempted as f64)),
                ("failed", Json::Num(r.failed as f64)),
                ("clean", Json::Bool(r.clean)),
                ("values", values(r.values)),
            ])
        }
        "layers" => {
            let plan = LadderPlan {
                rounds: num(2)? as usize,
                slice: Duration::from_millis(num(3)?),
            };
            Json::obj([("values", values(layers::run(num(1)?, plan, &trace_dir())?))])
        }
        "host" => {
            let plan = LadderPlan {
                rounds: 1,
                slice: Duration::from_millis(num(1)?),
            };
            let rtt = layers::HostProbe::start()?.tcp_rtt_p50_us(plan)?;
            Json::obj([(
                "values",
                Json::obj([
                    ("host.tcp_rtt_p50_us", Json::Num(rtt)),
                    ("host.spin_ms", Json::Num(layers::HostProbe::spin_ms())),
                ]),
            )])
        }
        other => return Err(format!("child: unknown mode {other:?}")),
    };
    println!("{}", line.compact());
    Ok(())
}

const USAGE: &str = "usage:
  benchmark --workload NAME --seed N --seconds S --trace 0|1
  benchmark all [--seed N] [--seconds S] [--smoke] [--out FILE]
  benchmark compare OLD.json NEW.json
workloads: null_tcp blob_tcp refs_tcp pipelined_tcp";

/// Flags of the two measuring modes.
struct Flags {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                f.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => f.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                f.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(f.seconds > 0.0 && f.seconds <= MAX_SECONDS) {
                    return Err(format!("--seconds must be in (0, {MAX_SECONDS}]"));
                }
            }
            "--trace" => {
                f.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => f.smoke = true,
            "--out" => f.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(f)
}

fn dispatch(args: &[String], process_start: Instant) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("child") => child(&args[1..], process_start).map(|()| true),
        Some("compare") => compare::run(&args[1..]),
        Some("all") => {
            let f = parse_flags(&args[1..])?;
            run_all(f.seed, f.seconds, f.smoke, f.out)
        }
        Some(_) => {
            let f = parse_flags(args)?;
            let workload = f.workload.ok_or("--workload is required")?;
            contract_run(workload, f.seed, f.seconds, f.traced)
        }
        None => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args, process_start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
