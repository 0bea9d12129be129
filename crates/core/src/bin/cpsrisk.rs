//! `cpsrisk` — the command-line front-end of the assessment framework.
//!
//! ```text
//! cpsrisk table2                 regenerate Table II of the paper
//! cpsrisk assess [--mitigated]   run the full 7-step pipeline (JSON with --json)
//! cpsrisk paths                  shortest attack paths on the case study
//! cpsrisk matrices               print the O-RA and IEC 61508 matrices
//! cpsrisk solve <file.lp>        run the embedded ASP solver on a program
//!                                (--certify FILE emits a checkable proof)
//! cpsrisk check <file.proof>     replay a certificate with the independent checker
//! cpsrisk lint [file.lp ...]     static-analyze ASP programs / the case study
//! cpsrisk analyze <file.lp ...>  semantic analysis: strata, tightness, sizes
//! cpsrisk simulate f1,f2         simulate the plant under a fault set
//! ```

use std::process::ExitCode;

use cpsrisk::casestudy;
use cpsrisk::epa::shortest_attack_paths;
use cpsrisk::model::Exposure;
use cpsrisk::pipeline::Assessment;
use cpsrisk::plant::{Fault, FaultSet, SimConfig, WaterTank};

fn main() -> ExitCode {
    // Exit quietly when the consumer closes the pipe (`cpsrisk … | head`),
    // instead of panicking on the failed stdout write.
    std::panic::set_hook(Box::new(|info| {
        let text = info.to_string();
        if text.contains("Broken pipe") {
            std::process::exit(0);
        }
        eprintln!("{text}");
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    let result = match command {
        "table2" => table2(),
        "assess" => assess(&args[1..]),
        "paths" => paths(),
        "matrices" => matrices(),
        "solve" => solve(&args[1..]),
        "check" => check(&args[1..]),
        "lint" => lint(&args[1..]),
        "analyze" => analyze(&args[1..]),
        "simulate" => simulate(&args[1..]),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => {
            eprintln!("unknown command `{other}`\n");
            print_help();
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    let workloads = cpsrisk::analyze::Workload::names_usage();
    println!(
        "cpsrisk — preliminary risk and mitigation assessment in cyber-physical systems\n\n\
         USAGE: cpsrisk <command> [options]\n\n\
         COMMANDS:\n\
         \x20 table2                 regenerate Table II of the paper (ASP back-end)\n\
         \x20 assess [--mitigated] [--json]\n\
         \x20                        run the 7-step pipeline on the water-tank case study\n\
         \x20 paths                  shortest attack paths from exposed assets\n\
         \x20 matrices               print the O-RA (Table I) and IEC 61508 matrices\n\
         \x20 solve <file.lp> [--certify FILE]\n\
         \x20                        solve an ASP program with the embedded engine\n\
         \x20                        (lint gate: errors abort, warnings go to stderr;\n\
         \x20                        --certify writes a self-contained proof the\n\
         \x20                        independent checker can replay)\n\
         \x20 check <file.proof>     replay a certificate emitted by solve --certify:\n\
         \x20                        re-ground the embedded program and\n\
         \x20                        verify every inference, model, and refutation\n\
         \x20                        with the solver-independent checker\n\
         \x20 lint [--deny-warnings] [file.lp | - ...]\n\
         \x20                        static-analyze ASP programs (codes A000-A014,\n\
         \x20                        `-` reads stdin); without files, lint the\n\
         \x20                        water-tank case study model (M001-M007) and\n\
         \x20                        its ASP encoding\n\
         \x20 analyze [--json] [--workload {workloads}\n\
         \x20         [--n N]]\n\
         \x20         [--max-divergence R] [file.lp | - ...]\n\
         \x20                        semantic analysis: dependency strata, tightness\n\
         \x20                        (predicate + ground level), predicted vs actual\n\
         \x20                        grounding size, slice savings, well-founded\n\
         \x20                        consequences + simplification, lint findings;\n\
         \x20                        fails on error findings or when the prediction\n\
         \x20                        diverges past R\n\
         \x20 simulate <f1,f2,...>   simulate the continuous plant under a fault set\n\
         \x20 help                   this message"
    );
}

fn table2() -> Result<(), Box<dyn std::error::Error>> {
    print!("{}", casestudy::render_table()?);
    Ok(())
}

fn assess(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mitigated = args.iter().any(|a| a == "--mitigated");
    let json = args.iter().any(|a| a == "--json");
    let active: &[&str] = if mitigated { &["m1", "m2"] } else { &[] };
    let problem = casestudy::water_tank_problem(active)?;
    let report = Assessment::new(problem)
        .with_phase_budgets(&[60, 200])
        .run()?;
    if json {
        println!("{}", cpsrisk::report::to_json(&report.hazards)?);
        return Ok(());
    }
    println!(
        "{} scenarios, {} hazards, {} minimal",
        report.outcomes.len(),
        report.hazards.len(),
        report.minimal_hazards.len()
    );
    for h in &report.hazards {
        println!(
            "  {} -> {:?}  risk {}",
            h.outcome.scenario,
            h.outcome.violated.iter().collect::<Vec<_>>(),
            h.risk
        );
    }
    if let Some((sel, cost)) = &report.recommendation {
        println!(
            "recommendation: {sel} (cost {cost}, residual {})",
            report.residual_loss
        );
    }
    for phase in &report.phases {
        println!("{phase}");
    }
    Ok(())
}

fn paths() -> Result<(), Box<dyn std::error::Error>> {
    let problem = casestudy::water_tank_problem(&[])?;
    for p in shortest_attack_paths(&problem, Exposure::Corporate) {
        println!("{p}");
    }
    // One ground program serves every per-requirement query.
    let analysis = cpsrisk::epa::ExhaustiveAnalysis::new(&problem, None)?;
    for req in ["r1", "r2"] {
        match analysis.cheapest_attack(req)? {
            Some((s, c)) => println!("cheapest attack on {req}: {s} (cost {c})"),
            None => println!("cheapest attack on {req}: none"),
        }
    }
    Ok(())
}

fn matrices() -> Result<(), Box<dyn std::error::Error>> {
    println!("{}", cpsrisk::risk::ora::render_matrix());
    println!("{}", cpsrisk::risk::iec61508::render_matrix());
    Ok(())
}

fn solve(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let usage = "usage: cpsrisk solve <file.lp> [--certify FILE]";
    let mut path: Option<&String> = None;
    let mut proof_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--certify" => {
                proof_out = Some(
                    it.next()
                        .cloned()
                        .ok_or("--certify needs a proof output path")?,
                );
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown solve flag `{other}` (try --certify FILE)").into());
            }
            _ => {
                if path.replace(arg).is_some() {
                    return Err(usage.into());
                }
            }
        }
    }
    let path = path.ok_or(usage)?;
    let src = std::fs::read_to_string(path)?;
    // Lint gate: error diagnostics abort the solve; warnings and infos go
    // to stderr but do not block.
    let diags = cpsrisk::asp::lint::lint_source(&src);
    for d in &diags {
        eprintln!("{d}");
    }
    if cpsrisk::asp::diag::has_errors(&diags) {
        return Err(format!("`{path}` has lint errors; aborting solve").into());
    }
    let program = cpsrisk::asp::parse(&src)?;
    let ground = cpsrisk::asp::Grounder::new().ground(&program)?;
    let mut solver = cpsrisk::asp::Solver::new(&ground);
    let opts = cpsrisk::asp::SolveOptions {
        certify: proof_out.is_some(),
        ..cpsrisk::asp::SolveOptions::default()
    };
    if ground.minimize.is_empty() {
        let result = solver.enumerate(&opts)?;
        for (i, m) in result.models.iter().enumerate() {
            println!("Answer {}: {m}", i + 1);
        }
        println!("{} model(s)", result.models.len());
        println!(
            "search: {} decisions, {} conflicts, {} restarts, {} propagations",
            result.decisions, result.conflicts, result.restarts, result.propagations
        );
    } else {
        match solver.optimize(&opts)? {
            Some(m) => println!("Optimum: {m}\ncost: {:?}", m.cost),
            None => println!("UNSATISFIABLE"),
        }
    }
    if let Some(out) = proof_out {
        let log = solver
            .take_proof()
            .ok_or("certified solve emitted no proof")?;
        let text = log.to_text(Some(&src), cpsrisk::asp::proof::DEFAULT_TEXT_CAP)?;
        std::fs::write(&out, &text)?;
        println!(
            "wrote certificate to {out} ({} steps, {} bytes; verify with `cpsrisk check {out}`)",
            log.len(),
            text.len()
        );
    }
    Ok(())
}

/// Replay a certificate with the solver-independent checker: parse the
/// proof file, re-ground the embedded program source, and verify every
/// step. Exits non-zero when the certificate is rejected.
fn check(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let usage = "usage: cpsrisk check <file.proof>";
    if args.len() != 1 || args[0].starts_with("--") {
        return Err(usage.into());
    }
    let path = &args[0];
    let text = std::fs::read_to_string(path)?;
    let (src, log) = cpsrisk::asp::ProofLog::from_text(&text)?;
    let src = src.ok_or(
        "proof file embeds no program source; \
         re-emit it with `cpsrisk solve --certify`",
    )?;
    let program = cpsrisk::asp::parse(&src)?;
    let ground = cpsrisk::asp::Grounder::new().ground(&program)?;
    let start = std::time::Instant::now();
    let report = cpsrisk::asp::check_proof(&ground, &log)
        .map_err(|e| format!("{path}: certificate REJECTED: {e}"))?;
    let check_ms = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "{path}: certificate OK in {check_ms:.1} ms — {} steps ({} axioms, \
         {} well-founded facts, {} inferences, {} learned, {} deleted), \
         {} call(s), {} model(s) audited, {} refutation(s) replayed",
        report.steps,
        report.axioms,
        report.wfm_facts,
        report.inferences,
        report.learned,
        report.deleted,
        report.calls,
        report.models,
        report.unsats
    );
    Ok(())
}

fn lint(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings");
    if let Some(bad) = args
        .iter()
        .find(|a| a.starts_with("--") && *a != "--deny-warnings")
    {
        return Err(format!("unknown lint flag `{bad}` (try --deny-warnings)").into());
    }
    let mut files: Vec<&String> = args
        .iter()
        .filter(|a| !a.starts_with("--") || a.as_str() == "-")
        .collect();
    // Deterministic output: files sorted by name; within each file the
    // linter already orders findings by span, then code.
    files.sort();
    files.dedup();
    let mut all: Vec<cpsrisk::asp::Diagnostic> = Vec::new();
    if files.is_empty() {
        // Lint the shipped case study: the system model, then its
        // exhaustive ASP encoding.
        let problem = casestudy::water_tank_problem(&[])?;
        let model_diags = cpsrisk::model::lint_model(&problem.model);
        println!("== model ==");
        for d in &model_diags {
            println!("{d}");
        }
        let program = cpsrisk::epa::encode::encode(
            &problem,
            &cpsrisk::epa::encode::EncodeMode::Exhaustive { max_faults: None },
        );
        let asp_diags = cpsrisk::asp::lint::lint_source(&program.to_string());
        println!("== encoding ==");
        for d in &asp_diags {
            println!("{d}");
        }
        all.extend(model_diags);
        all.extend(asp_diags);
    } else {
        for path in files {
            let (name, src) = read_program_input(path)?;
            let diags = cpsrisk::asp::lint::lint_source(&src);
            println!("== {name} ==");
            for d in &diags {
                println!("{d}");
            }
            all.extend(diags);
        }
    }
    let errors = all.iter().filter(|d| d.is_error()).count();
    let warnings = all.iter().filter(|d| d.is_warning()).count();
    println!(
        "{errors} error(s), {warnings} warning(s), {} finding(s)",
        all.len()
    );
    if errors > 0 || (deny_warnings && warnings > 0) {
        return Err("lint failed".into());
    }
    Ok(())
}

/// Resolve a `file.lp` argument, with `-` meaning stdin.
fn read_program_input(path: &str) -> Result<(String, String), Box<dyn std::error::Error>> {
    if path == "-" {
        let mut src = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut src)?;
        Ok(("<stdin>".to_owned(), src))
    } else {
        Ok((path.to_owned(), std::fs::read_to_string(path)?))
    }
}

fn analyze(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut json = false;
    let mut workload: Option<cpsrisk::analyze::Workload> = None;
    let mut n: Option<usize> = None;
    let mut max_divergence: Option<f64> = None;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--json" => json = true,
            "--workload" => {
                workload = Some(cpsrisk::analyze::Workload::parse(&value("--workload")?)?);
            }
            "--n" => n = Some(value("--n")?.parse()?),
            "--max-divergence" => max_divergence = Some(value("--max-divergence")?.parse()?),
            other if other.starts_with("--") => {
                return Err(format!(
                    "unknown analyze flag `{other}` \
                     (try --json/--workload/--n/--max-divergence)"
                )
                .into())
            }
            file => files.push(file.to_owned()),
        }
    }
    if files.is_empty() && workload.is_none() {
        return Err(format!(
            "usage: cpsrisk analyze <file.lp ...> [--json] \
             [--workload {} [--n N]] \
             [--max-divergence R]",
            cpsrisk::analyze::Workload::names_usage()
        )
        .into());
    }

    let mut inputs: Vec<(String, String)> = Vec::new();
    files.sort();
    files.dedup();
    for path in &files {
        inputs.push(read_program_input(path)?);
    }
    if let Some(w) = workload {
        let n = n.unwrap_or_else(|| w.default_n());
        let program = w.program(n)?;
        inputs.push((
            format!("workload:{}(n={n})", w.as_str()),
            program.to_string(),
        ));
    }

    let mut reports = Vec::new();
    for (name, src) in &inputs {
        reports.push(cpsrisk::analyze::analyze_source(name, src)?);
    }

    if json {
        println!("{}", serde_json::to_string_pretty(&reports)?);
    } else {
        for r in &reports {
            print!("{}", cpsrisk::analyze::render(r));
        }
    }

    let errors: usize = reports
        .iter()
        .map(cpsrisk::analyze::AnalyzeReport::errors)
        .sum();
    if errors > 0 {
        return Err(format!("analysis found {errors} error-severity finding(s)").into());
    }
    if let Some(limit) = max_divergence {
        for r in &reports {
            let diverged = match r.size.divergence {
                Some(d) => d > limit,
                // One side zero, the other not: unbounded divergence.
                None => r.size.actual_rules > 0 || r.size.predicted_rules > 0.0,
            };
            if diverged {
                return Err(format!(
                    "{}: grounding-size prediction diverged past {limit}x \
                     (predicted {:.1}, actual {})",
                    r.name, r.size.predicted_rules, r.size.actual_rules
                )
                .into());
            }
        }
    }
    Ok(())
}

fn simulate(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let spec = args.first().map(String::as_str).unwrap_or("");
    let mut faults = FaultSet::empty();
    for part in spec.split(',').filter(|s| !s.is_empty()) {
        match part.trim() {
            "f1" => faults.insert(Fault::F1),
            "f2" => faults.insert(Fault::F2),
            "f3" => faults.insert(Fault::F3),
            "f4" => faults.insert(Fault::F4),
            other => return Err(format!("unknown fault `{other}` (use f1..f4)").into()),
        }
    }
    let tank = WaterTank::new(SimConfig::default());
    let run = tank.run(&faults);
    println!("faults: {faults}");
    println!("R1 (no overflow):        {}", verdict(run.violates_r1()));
    println!("R2 (alert on overflow):  {}", verdict(run.violates_r2()));
    if let Some(t) = run.overflow_time() {
        println!("overflow at t = {t:.1} s");
    }
    let q = cpsrisk::plant::qualitative::abstract_levels(&run)?;
    println!("qualitative level path: {}", q.level_path().join(" -> "));
    Ok(())
}

fn verdict(violated: bool) -> &'static str {
    if violated {
        "VIOLATED"
    } else {
        "satisfied"
    }
}
