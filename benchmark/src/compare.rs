//! `benchmark compare OLD.json NEW.json`: one row per (workload,
//! end-to-end metric), judged against the bound `BENCHMARK.json` fixes, and
//! one row per workload for its failed ops, where any rise is a regression.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The medians agree within the bound, but a side's own repetitions
    /// spread wider than the bound: "unchanged" would claim too much.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric in one result file: its median over the repetitions, their
/// range, and their quartiles.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    /// Distance between the quartiles as a share of the median: the same
    /// spread the benchmark's driver holds a metric's bound against.
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

/// `bound` is the share of the old median by which the metric may worsen.
pub fn judge(old: Side, new: Side, higher_is_better: bool, bound: f64) -> Verdict {
    let change = (new.median - old.median) / old.median.abs().max(f64::MIN_POSITIVE);
    let worsening = if higher_is_better { -change } else { change };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else if old.spread() > bound || new.spread() > bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

/// A workload's failure accounting in one result file.
#[derive(Debug, Clone, Copy)]
pub struct Failures {
    pub attempted: f64,
    pub failed: f64,
    /// No failed op, no failed warm-up op, object tables drained.
    pub correct: bool,
}

impl Failures {
    fn share(&self) -> f64 {
        self.failed / self.attempted.max(1.0)
    }
}

/// Failed ops have a bound of 0: any rise of their share is `worse`, and so
/// is a new side that is not correct, whatever the old one was.
pub fn judge_failures(old: Failures, new: Failures) -> Verdict {
    if !new.correct || new.share() > old.share() {
        Verdict::Worse
    } else if new.share() < old.share() {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn side(file: &Json, workload: &str, metric: &str) -> Option<Side> {
    let m = file
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let num = |k| m.get(k).and_then(Json::as_f64);
    Some(Side {
        median: num("median")?,
        min: num("min")?,
        max: num("max")?,
        q1: num("q1")?,
        q3: num("q3")?,
    })
}

fn failures(file: &Json, workload: &str) -> Option<Failures> {
    let w = file.get("workloads")?.get(workload)?;
    Some(Failures {
        attempted: w.get("attempted")?.as_f64()?,
        failed: w.get("failed")?.as_f64()?,
        correct: w.get("correct")?.as_bool()?,
    })
}

/// Prints the table; `Ok(false)` when any row is `worse`. Workloads,
/// metrics and bounds are those of `BENCHMARK.json` in the current
/// directory, the repo root.
pub fn run(args: &[String]) -> Result<bool, String> {
    let [old_path, new_path] = args else {
        return Err("compare takes OLD.json NEW.json".into());
    };
    let (old, new, declared) = (load(old_path)?, load(new_path)?, load("BENCHMARK.json")?);

    println!(
        "{:<14} {:<12} {:>11} {:>23} {:>7} {:>11} {:>23} {:>7} {:>7} {:>5}  verdict",
        "workload",
        "metric",
        "old",
        "old min..max",
        "spread",
        "new",
        "new min..max",
        "spread",
        "change",
        "bound"
    );
    let mut any_worse = false;
    let workloads = declared.get("workloads").map_or(&[][..], Json::items);
    let metrics = declared.get("end_to_end").map_or(&[][..], Json::items);
    for w in workloads {
        let workload = w.get("name").and_then(Json::as_str).unwrap_or("");
        for m in metrics {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let (Some(o), Some(n)) = (side(&old, workload, name), side(&new, workload, name))
            else {
                return Err(format!("{workload}/{name} is missing from a result file"));
            };
            let verdict = judge(o, n, higher, bound);
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{:<14} {:<12} {:>11.3} {:>23} {:>6.1}% {:>11.3} {:>23} {:>6.1}% {:>+6.1}% {:>4.0}%  {}",
                workload,
                name,
                o.median,
                format!("{:.3}..{:.3}", o.min, o.max),
                o.spread() * 100.0,
                n.median,
                format!("{:.3}..{:.3}", n.min, n.max),
                n.spread() * 100.0,
                (n.median - o.median) / o.median * 100.0,
                bound * 100.0,
                verdict.label()
            );
        }
        let (Some(o), Some(n)) = (failures(&old, workload), failures(&new, workload)) else {
            return Err(format!(
                "{workload}: attempted/failed/correct missing from a result file"
            ));
        };
        let verdict = judge_failures(o, n);
        any_worse |= verdict == Verdict::Worse;
        let cell = |f: Failures| {
            let mark = if f.correct { "" } else { " INCORRECT" };
            format!("{} of {}{mark}", f.failed, f.attempted)
        };
        println!(
            "{:<14} {:<12} {:>43} {:>43} {:>7} {:>4.0}%  {}",
            workload,
            "failed ops",
            cell(o),
            cell(n),
            "",
            0.0,
            verdict.label()
        );
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Side {
        Side {
            median,
            min: median * 0.5,
            max: median * 2.0,
            q1: median * 0.99,
            q3: median * 1.01,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        // Lower is better: +20 % is worse, −20 % better, +5 % the same.
        assert_eq!(
            judge(tight(100.0), tight(120.0), false, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            judge(tight(100.0), tight(80.0), false, 0.1),
            Verdict::Better
        );
        assert_eq!(judge(tight(100.0), tight(105.0), false, 0.1), Verdict::Same);
        // Higher is better: the same numbers, judged the other way round.
        assert_eq!(
            judge(tight(100.0), tight(120.0), true, 0.1),
            Verdict::Better
        );
        assert_eq!(judge(tight(100.0), tight(80.0), true, 0.1), Verdict::Worse);
    }

    #[test]
    fn wide_spreads_are_unresolved_not_same() {
        let wide = Side {
            median: 100.0,
            min: 80.0,
            max: 130.0,
            q1: 95.0,
            q3: 107.0,
        };
        assert_eq!(judge(wide, tight(101.0), false, 0.1), Verdict::Unresolved);
        assert_eq!(judge(tight(100.0), wide, false, 0.1), Verdict::Unresolved);
        // A regression beyond the bound is still a regression.
        assert_eq!(judge(wide, tight(130.0), false, 0.1), Verdict::Worse);
    }

    #[test]
    fn any_rise_in_failed_ops_is_worse() {
        let clean = Failures {
            attempted: 1e6,
            failed: 0.0,
            correct: true,
        };
        let one = Failures {
            attempted: 1e6,
            failed: 1.0,
            correct: false,
        };
        assert_eq!(judge_failures(clean, clean), Verdict::Same);
        assert_eq!(judge_failures(clean, one), Verdict::Worse);
        // Still incorrect: fewer failures do not make it acceptable.
        let two = Failures { failed: 2.0, ..one };
        assert_eq!(judge_failures(two, one), Verdict::Worse);
        assert_eq!(judge_failures(one, clean), Verdict::Better);
        // Leaked exports with no failed op: incorrect all the same.
        let leaked = Failures {
            correct: false,
            ..clean
        };
        assert_eq!(judge_failures(clean, leaked), Verdict::Worse);
    }
}
