//! `dagchkpt` — command-line front end to the library.
//!
//! ```text
//! dagchkpt generate --kind montage -n 100 [--rule 0.1w] [--seed 42]
//!                   [--out wf.json] [--dot wf.dot]
//! dagchkpt solve    (--kind K -n N | --workflow wf.json) --lambda 1e-3
//!                   [--downtime 0] [--heuristic DF-CkptW | all]
//!                   [--seed 42] [--out schedule.json]
//! dagchkpt eval     --workflow wf.json --schedule schedule.json
//!                   --lambda 1e-3 [--downtime 0]
//! dagchkpt simulate --workflow wf.json --schedule schedule.json
//!                   --lambda 1e-3 [--downtime 0] [--trials 10000]
//!                   [--seed 42] [--weibull-shape 0.7]
//! ```
//!
//! Workflows are exchanged as `WorkflowSpec` JSON, schedules as `Schedule`
//! JSON (both produced and consumed by this tool).

use dagchkpt::dag::dot::{to_dot, DotOptions};
use dagchkpt::failure::WeibullInjector;
use dagchkpt::prelude::*;
use dagchkpt::sim::run_trials_with;
use dagchkpt::workflows::WorkflowSpec;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  dagchkpt generate --kind montage|ligo|cybershake|genome -n N \\
                    [--rule 0.1w|0.01w|5s|10s] [--seed S] [--out FILE] [--dot FILE]
  dagchkpt solve    (--kind K -n N | --workflow FILE) --lambda L \\
                    [--downtime D] [--heuristic NAME|all] [--seed S] [--out FILE]
  dagchkpt eval     --workflow FILE --schedule FILE --lambda L [--downtime D]
  dagchkpt simulate --workflow FILE --schedule FILE --lambda L [--downtime D] \\
                    [--trials T] [--seed S] [--weibull-shape SH]";

/// Splits `args` into flag → value pairs (all our flags take a value).
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) else {
            return Err(format!("unexpected argument: {a}"));
        };
        let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), v.clone());
    }
    Ok(flags)
}

fn req<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("missing --{name}"))
}

fn parse_f64(s: &str, what: &str) -> Result<f64, String> {
    s.parse().map_err(|_| format!("bad {what}: {s}"))
}

fn parse_kind(s: &str) -> Result<PegasusKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "montage" => Ok(PegasusKind::Montage),
        "ligo" => Ok(PegasusKind::Ligo),
        "cybershake" => Ok(PegasusKind::CyberShake),
        "genome" => Ok(PegasusKind::Genome),
        other => Err(format!("unknown kind: {other}")),
    }
}

fn parse_rule(s: &str) -> Result<CostRule, String> {
    if let Some(ratio) = s.strip_suffix('w') {
        Ok(CostRule::ProportionalToWork {
            ratio: parse_f64(ratio, "rule ratio")?,
        })
    } else if let Some(v) = s.strip_suffix('s') {
        Ok(CostRule::Constant {
            value: parse_f64(v, "rule constant")?,
        })
    } else {
        Err(format!("bad cost rule (want e.g. 0.1w or 5s): {s}"))
    }
}

fn parse_heuristic(s: &str) -> Result<Heuristic, String> {
    let (lin, ckpt) = s
        .split_once('-')
        .ok_or_else(|| format!("bad heuristic: {s}"))?;
    let lin = match lin {
        "DF" => LinearizationStrategy::DepthFirst,
        "BF" => LinearizationStrategy::BreadthFirst,
        "RF" => LinearizationStrategy::RandomFirst { seed: 42 },
        other => return Err(format!("unknown linearization: {other}")),
    };
    let ckpt = match ckpt {
        "CkptNvr" => CheckpointStrategy::Never,
        "CkptAlws" => CheckpointStrategy::Always,
        "CkptW" => CheckpointStrategy::ByDecreasingWork,
        "CkptC" => CheckpointStrategy::ByIncreasingCkptCost,
        "CkptD" => CheckpointStrategy::ByDecreasingOutweight,
        "CkptPer" => CheckpointStrategy::Periodic,
        "CkptH" => CheckpointStrategy::ByDecreasingWorkOverCost,
        other => return Err(format!("unknown checkpoint strategy: {other}")),
    };
    Ok(Heuristic { lin, ckpt })
}

fn load_workflow(path: &str) -> Result<Workflow, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let spec = WorkflowSpec::from_json(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    spec.build()
        .map_err(|e| format!("building workflow from {path}: {e}"))
}

fn load_schedule(path: &str, wf: &Workflow) -> Result<Schedule, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let s: Schedule = serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    // Re-validate against this workflow.
    Schedule::new(wf, s.order().to_vec(), s.checkpoints().clone())
        .map_err(|e| format!("schedule invalid for workflow: {e}"))
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("no command".into());
    };
    let flags = parse_flags(rest)?;
    match cmd.as_str() {
        "generate" => generate(&flags),
        "solve" => solve(&flags),
        "eval" => eval(&flags),
        "simulate" => simulate_cmd(&flags),
        other => Err(format!("unknown command: {other}")),
    }
}

fn generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let kind = parse_kind(req(flags, "kind")?)?;
    let n: usize = req(flags, "n")?.parse().map_err(|_| "bad -n".to_string())?;
    let rule = parse_rule(flags.get("rule").map(|s| s.as_str()).unwrap_or("0.1w"))?;
    let seed: u64 = flags
        .get("seed")
        .map_or(Ok(42), |s| s.parse().map_err(|_| "bad --seed"))?;
    let (wf, labels) = kind.generate_labeled(n, rule, seed);
    let spec = WorkflowSpec::from_workflow(&wf, Some(&labels));
    let json = spec.to_json();
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
            println!(
                "wrote {kind} workflow: {n} tasks, {} edges, Tinf = {:.1} s -> {path}",
                wf.dag().n_edges(),
                wf.total_work()
            );
        }
        None => println!("{json}"),
    }
    if let Some(path) = flags.get("dot") {
        let dot = to_dot(
            wf.dag(),
            |v| format!("{}\\n#{v}", labels[v.index()]),
            &DotOptions::default(),
        );
        std::fs::write(path, dot).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote Graphviz -> {path}");
    }
    Ok(())
}

fn workflow_from_flags(flags: &HashMap<String, String>) -> Result<Workflow, String> {
    if let Some(path) = flags.get("workflow") {
        load_workflow(path)
    } else {
        let kind = parse_kind(req(flags, "kind")?)?;
        let n: usize = req(flags, "n")?.parse().map_err(|_| "bad -n".to_string())?;
        let rule = parse_rule(flags.get("rule").map(|s| s.as_str()).unwrap_or("0.1w"))?;
        let seed: u64 = flags
            .get("seed")
            .map_or(Ok(42), |s| s.parse().map_err(|_| "bad --seed"))?;
        Ok(kind.generate(n, rule, seed))
    }
}

fn model_from_flags(flags: &HashMap<String, String>) -> Result<FaultModel, String> {
    let lambda = parse_f64(req(flags, "lambda")?, "lambda")?;
    let d = flags
        .get("downtime")
        .map_or(Ok(0.0), |s| parse_f64(s, "downtime"))?;
    Ok(FaultModel::new(lambda, d))
}

fn solve(flags: &HashMap<String, String>) -> Result<(), String> {
    let wf = workflow_from_flags(flags)?;
    let model = model_from_flags(flags)?;
    let seed: u64 = flags
        .get("seed")
        .map_or(Ok(42), |s| s.parse().map_err(|_| "bad --seed"))?;
    let which = flags.get("heuristic").map(|s| s.as_str()).unwrap_or("all");
    let mut results = if which == "all" {
        run_all(&wf, model, SweepPolicy::Exhaustive, seed)
    } else {
        vec![run_heuristic(
            &wf,
            model,
            parse_heuristic(which)?,
            SweepPolicy::Exhaustive,
        )]
    };
    results.sort_by(|a, b| a.expected_makespan.total_cmp(&b.expected_makespan));
    println!(
        "{:<12} {:>14} {:>9} {:>7}",
        "heuristic", "E[makespan] s", "T/Tinf", "#ckpt"
    );
    for r in &results {
        println!(
            "{:<12} {:>14.2} {:>9.4} {:>7}",
            r.name,
            r.expected_makespan,
            r.ratio,
            r.schedule.n_checkpoints()
        );
    }
    if let Some(path) = flags.get("out") {
        let best = &results[0];
        let json = serde_json::to_string_pretty(&best.schedule)
            .map_err(|e| format!("serializing schedule: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote best schedule ({}) -> {path}", best.name);
    }
    Ok(())
}

fn eval(flags: &HashMap<String, String>) -> Result<(), String> {
    let wf = load_workflow(req(flags, "workflow")?)?;
    let schedule = load_schedule(req(flags, "schedule")?, &wf)?;
    let model = model_from_flags(flags)?;
    let report = evaluate(&wf, model, &schedule);
    println!("E[makespan] = {:.4} s", report.expected_makespan);
    println!("Tinf        = {:.4} s", wf.total_work());
    println!(
        "T/Tinf      = {:.6}",
        report.expected_makespan / wf.total_work()
    );
    println!("checkpoints = {}", schedule.n_checkpoints());
    // Top contributors.
    let mut by_cost: Vec<(usize, f64)> = report.per_position.iter().cloned().enumerate().collect();
    by_cost.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("heaviest positions (task: E[X]):");
    for (pos, e) in by_cost.into_iter().take(5) {
        println!(
            "  T{} @ position {}: {:.3} s",
            schedule.order()[pos],
            pos + 1,
            e
        );
    }
    Ok(())
}

fn simulate_cmd(flags: &HashMap<String, String>) -> Result<(), String> {
    let wf = load_workflow(req(flags, "workflow")?)?;
    let schedule = load_schedule(req(flags, "schedule")?, &wf)?;
    let model = model_from_flags(flags)?;
    let trials: usize = flags
        .get("trials")
        .map_or(Ok(10_000), |s| s.parse().map_err(|_| "bad --trials"))?;
    let seed: u64 = flags
        .get("seed")
        .map_or(Ok(42), |s| s.parse().map_err(|_| "bad --seed"))?;
    let spec = TrialSpec::new(trials, seed);
    let stats = match flags.get("weibull-shape") {
        None => run_trials(&wf, &schedule, model, spec),
        Some(sh) => {
            let shape = parse_f64(sh, "weibull shape")?;
            let scale = WeibullInjector::mtbf_scale(model.mtbf(), shape);
            run_trials_with(&wf, &schedule, model.downtime(), spec, move |s| {
                WeibullInjector::new(scale, shape, s)
            })
        }
    };
    println!("trials      = {}", stats.makespan.n());
    println!(
        "makespan    = {:.3} ± {:.3} s (95% CI), stddev {:.3}",
        stats.makespan.mean(),
        stats.makespan.ci95(),
        stats.makespan.stddev()
    );
    println!(
        "range       = [{:.3}, {:.3}] s",
        stats.makespan.min(),
        stats.makespan.max()
    );
    println!("mean faults = {:.3}", stats.faults.mean());
    let labels = [
        "work",
        "rework",
        "recovery",
        "checkpoint",
        "wasted",
        "downtime",
    ];
    println!("mean time breakdown:");
    for (l, v) in labels.iter().zip(stats.mean_breakdown) {
        println!("  {l:<11} {v:>12.3} s");
    }
    let analytic = expected_makespan(&wf, model, &schedule);
    let z = (stats.makespan.mean() - analytic) / stats.makespan.sem();
    println!("analytic    = {analytic:.3} s (z = {z:.2})");
    Ok(())
}
