//! Cost-benefit mitigation planning (§IV-C/D) on a realistic SME
//! hardening problem: the exact optimizer blocks every attack chain at
//! least cost, then trades residual loss against a budget, and a
//! multi-phase consolidation plan spreads the spend over quarterly
//! budgets.
//!
//! Run with: `cargo run --example mitigation_planning`

use cpsrisk::mitigation::{
    best_under_budget, branch_and_bound, consolidation_plan, AttackScenario, Coverage,
    MitigationCandidate, MitigationProblem,
};

fn problem() -> MitigationProblem {
    MitigationProblem {
        candidates: vec![
            MitigationCandidate::new("training", "User Training", 40, &["phish"]),
            MitigationCandidate::new("endpoint", "Endpoint Security", 120, &["phish", "malware"]),
            MitigationCandidate::new(
                "segment",
                "Network Segmentation",
                200,
                &["lateral", "remote_svc"],
            ),
            MitigationCandidate::new("mfa", "Multi-factor Auth", 60, &["valid_accounts"]),
            MitigationCandidate::new(
                "allowlist",
                "Network Allowlists",
                70,
                &["remote_svc", "cmd_msg"],
            ),
            MitigationCandidate::new("watchdog", "Watchdog Timers", 50, &["device_restart"]),
        ],
        scenarios: vec![
            AttackScenario::new("mail_chain", &["phish", "malware", "lateral"], 5000),
            AttackScenario::new("remote_entry", &["remote_svc", "valid_accounts"], 3000),
            AttackScenario::new("rogue_commands", &["cmd_msg"], 4000),
            AttackScenario::new("dos_restart", &["device_restart"], 800),
        ],
        coverage: Coverage::Any,
        periods: 4, // four maintenance quarters in the comparison horizon
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let p = problem();

    println!("=== minimum-cost blocking of all attack chains ===\n");
    let cover = branch_and_bound(&p)?;
    println!("select {}  cost {}", cover, p.cost(&cover));

    println!("\n=== budget-constrained risk reduction ===\n");
    for budget in [0, 100, 200, 400] {
        let sel = best_under_budget(&p, budget);
        println!(
            "budget {budget:>4}: select {}  cost {}  residual loss {}",
            sel,
            p.cost(&sel),
            p.residual_loss(&sel)
        );
    }

    println!("\n=== multi-phase consolidation (quarterly budgets) ===\n");
    for phase in consolidation_plan(&p, &[100, 150, 150, 150]) {
        println!("{phase}");
    }
    Ok(())
}
