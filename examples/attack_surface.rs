//! Attack-surface exploration: inject candidate mutations from the threat
//! catalogs (CVE/ATT&CK-shaped, §IV-A "scenario space"), extract shortest
//! attack paths from exposed assets, and rank them by CVSS-derived
//! severity and threat-actor feasibility.
//!
//! Run with: `cargo run --example attack_surface`

use cpsrisk::casestudy;
use cpsrisk::epa::{inject_mutations, shortest_attack_paths, EpaProblem};
use cpsrisk::model::{Exposure, TypeLibrary};
use cpsrisk::threat::{ThreatActor, ThreatCatalog};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = casestudy::water_tank_model()?;
    let library = TypeLibrary::standard();
    let catalog = ThreatCatalog::curated();

    println!("=== step 2: candidate system mutations from the catalogs ===\n");
    let mutations = inject_mutations(&model, &library, &catalog);
    for m in &mutations {
        println!("  {m}");
    }

    println!("\n=== catalog views on the engineering workstation ===\n");
    for t in catalog.techniques_for_type("engineering_workstation") {
        println!(
            "  {} {:<38} tactic={:<22} difficulty={}",
            t.id,
            t.name,
            t.tactic.asp_name(),
            t.difficulty
        );
    }
    for v in catalog.vulnerabilities_for_type("engineering_workstation") {
        println!(
            "  {} CVSS {} ({}) -> induces `{}`",
            v.id,
            v.cvss.base_score(),
            v.cvss.severity(),
            v.induced_fault
        );
    }

    println!("\n=== shortest attack paths from corporate-exposed assets ===\n");
    let problem = EpaProblem::new(
        model,
        mutations,
        casestudy::water_tank_requirements(),
        casestudy::water_tank_mitigations(),
    )?;
    for path in shortest_attack_paths(&problem, Exposure::Corporate) {
        println!("  {path}");
    }

    println!("\n=== most efficient attacks (\u{a7}IV-D, ASP #minimize) ===\n");
    let exhaustive = cpsrisk::epa::ExhaustiveAnalysis::new(&problem, None)?;
    for req in ["r1", "r2"] {
        match exhaustive.cheapest_attack(req)? {
            Some((scenario, cost)) => {
                println!(
                    "  {req}: cheapest violating fault set {scenario} at attacker cost {cost}"
                );
            }
            None => println!("  {req}: not attackable"),
        }
    }

    println!("\n=== threat-actor feasibility (FAIR TCap vs difficulty) ===\n");
    for actor in [
        ThreatActor::script_kiddie(),
        ThreatActor::insider(),
        ThreatActor::cybercrime(),
        ThreatActor::apt(),
    ] {
        let feasible = catalog
            .techniques()
            .filter(|t| actor.can_execute(t.difficulty))
            .count();
        println!(
            "  {:<16} capability={}  can execute {}/{} catalog techniques",
            actor.name,
            actor.capability(),
            feasible,
            catalog.techniques().count()
        );
    }
    Ok(())
}
