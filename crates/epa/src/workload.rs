//! Parametric benchmark workloads.
//!
//! Lives in the EPA crate so the analysis engines, their tests,
//! `cpsrisk analyze --workload` and the `perfbench` benchmark can all
//! generate identical problem instances.

use std::collections::{BTreeMap, BTreeSet};

use cpsrisk_asp::ast::{ArithOp, CmpOp};
use cpsrisk_asp::{predict_sizes, ProgramBuilder, Term};
use cpsrisk_model::{ElementKind, FlowKind, Relation, RelationKind, SystemModel};
use cpsrisk_qr::Qual;
use cpsrisk_temporal::{parse_ltl, unroll, Ltl};
use cpsrisk_threat::generator::{generate, GeneratorConfig};

use crate::encode::{encode, EncodeMode};
use crate::mutation::{CandidateMutation, MutationSource};
use crate::problem::{EpaProblem, MitigationOption, Requirement};
use crate::scenario::ScenarioSpace;
use crate::session::Query;

/// A parametric control chain: `ew -> d1 -> … -> dn -> valve`, one
/// `compromised` mutation per device plus a stuck-valve mutation, and a
/// requirement on the valve mode. Scenario-space size grows as `2^(n+2)`.
///
/// # Panics
///
/// Never panics for `n ≥ 1` (identifiers are generated valid).
#[must_use]
pub fn chain_problem(n: usize) -> EpaProblem {
    let mut m = SystemModel::new(format!("chain_{n}"));
    m.add_element("ew", "Workstation", ElementKind::Node)
        .expect("valid id");
    let mut prev = "ew".to_owned();
    for i in 1..=n {
        let id = format!("d{i}");
        m.add_element(&id, &format!("Device {i}"), ElementKind::Device)
            .expect("valid id");
        m.insert_relation(Relation::new(&prev, &id, RelationKind::Flow))
            .expect("endpoints exist");
        prev = id;
    }
    m.add_element("valve", "Valve", ElementKind::Equipment)
        .expect("valid id");
    m.insert_relation(Relation::new(&prev, "valve", RelationKind::Flow))
        .expect("endpoints exist");

    let mut mutations = vec![CandidateMutation::spontaneous(
        "f_valve",
        "valve",
        "stuck_at_closed",
    )];
    mutations.push(CandidateMutation::spontaneous("f_ew", "ew", "compromised"));
    for i in 1..=n {
        mutations.push(CandidateMutation::spontaneous(
            &format!("f_d{i}"),
            &format!("d{i}"),
            "compromised",
        ));
    }
    let requirements = vec![Requirement::all_of(
        "r1",
        "valve must not stick",
        &[("valve", "stuck_at_closed")],
    )];
    let mitigations = vec![MitigationOption::new(
        "m_ew",
        "Harden Workstation",
        &["f_ew"],
        100,
    )];
    EpaProblem::new(m, mutations, requirements, mitigations).expect("chain problem validates")
}

/// A `w × h` mesh of devices with `Flow` edges to the right and downward
/// neighbours, fed by a workstation and draining into a valve. The mutation
/// set is **constant** (workstation compromise, a mid-grid compromise, a
/// stuck valve), so the scenario space stays at `2^3` while the ground
/// program grows with `w · h` — a grounding-bound workload, in contrast to
/// the enumeration-bound [`chain_problem`].
///
/// # Panics
///
/// Never panics for `w, h ≥ 1` (identifiers are generated valid).
#[must_use]
pub fn grid_problem(w: usize, h: usize) -> EpaProblem {
    let mut m = SystemModel::new(format!("grid_{w}x{h}"));
    m.add_element("ew", "Workstation", ElementKind::Node)
        .expect("valid id");
    for y in 0..h {
        for x in 0..w {
            let id = format!("g{x}_{y}");
            m.add_element(&id, &format!("Device ({x},{y})"), ElementKind::Device)
                .expect("valid id");
            if x > 0 {
                m.insert_relation(Relation::new(
                    format!("g{}_{y}", x - 1),
                    &id,
                    RelationKind::Flow,
                ))
                .expect("endpoints exist");
            }
            if y > 0 {
                m.insert_relation(Relation::new(
                    format!("g{x}_{}", y - 1),
                    &id,
                    RelationKind::Flow,
                ))
                .expect("endpoints exist");
            }
        }
    }
    m.insert_relation(Relation::new("ew", "g0_0", RelationKind::Flow))
        .expect("endpoints exist");
    m.add_element("valve", "Valve", ElementKind::Equipment)
        .expect("valid id");
    m.insert_relation(Relation::new(
        format!("g{}_{}", w - 1, h - 1),
        "valve",
        RelationKind::Flow,
    ))
    .expect("endpoints exist");

    let mid = format!("g{}_{}", w / 2, h / 2);
    let mutations = vec![
        CandidateMutation::spontaneous("f_ew", "ew", "compromised"),
        CandidateMutation::spontaneous("f_mid", &mid, "compromised"),
        CandidateMutation::spontaneous("f_valve", "valve", "stuck_at_closed"),
    ];
    let requirements = vec![Requirement::all_of(
        "r1",
        "valve must not stick",
        &[("valve", "stuck_at_closed")],
    )];
    let mitigations = vec![MitigationOption::new(
        "m_ew",
        "Harden Workstation",
        &["f_ew"],
        100,
    )];
    EpaProblem::new(m, mutations, requirements, mitigations).expect("grid problem validates")
}

/// A deterministic three-tank filling process unrolled over `horizon` time
/// steps via [`cpsrisk_temporal`]: per-tank level dynamics driven by `U =
/// T + 1` arithmetic binding, a pairwise level comparison joining on the
/// *time* argument (third position — first-argument narrowing is useless
/// there), alert propagation, and one `G(exceeds -> F alert)` LTLf
/// requirement per tank. The single stable model makes solving trivial, so
/// end-to-end cost is dominated by grounding, which scales with the
/// horizon.
///
/// # Panics
///
/// Panics if `horizon < 2` (the unroller rejects empty horizons and the
/// dynamics need at least one successor step).
#[must_use]
pub fn temporal_tank_problem(horizon: usize) -> cpsrisk_asp::Program {
    assert!(horizon >= 2, "temporal_tank_problem needs horizon >= 2");
    let mut b = ProgramBuilder::new();
    for t in 0..horizon {
        b.fact("time", [Term::Int(t as i64)]);
    }
    tank_dynamics(&mut b, horizon as i64);
    for (name, formula) in temporal_tank_requirements() {
        unroll(&mut b, &name, &formula, horizon).expect("horizon >= 2");
    }
    b.finish()
}

const TANKS: [&str; 3] = ["boiler", "mixer", "reservoir"];

/// The three-tank level dynamics of [`temporal_tank_problem`], without the
/// `time/1` facts and the unrolled requirements: everything that does not
/// depend on the horizon.
fn tank_dynamics(b: &mut ProgramBuilder, limit: i64) {
    let tanks = TANKS;
    for (i, tank) in tanks.iter().enumerate() {
        b.fact("tank", [Term::sym(*tank)]);
        b.fact("inflow", [Term::sym(*tank), Term::Int(i as i64 + 1)]);
        b.fact("reading", [Term::sym(*tank), Term::Int(0), Term::Int(0)]);
    }
    b.fact("limit", [Term::Int(limit)]);

    let plus_one =
        |v: &str| Term::BinOp(ArithOp::Add, Box::new(Term::var(v)), Box::new(Term::Int(1)));
    // reading(C, L2, U) :- reading(C, L, T), inflow(C, R),
    //                      L2 = L + R, U = T + 1, time(U).
    b.rule(
        "reading",
        vec![Term::var("C"), Term::var("L2"), Term::var("U")],
    )
    .pos(
        "reading",
        vec![Term::var("C"), Term::var("L"), Term::var("T")],
    )
    .pos("inflow", vec![Term::var("C"), Term::var("R")])
    .cmp(
        CmpOp::Eq,
        Term::var("L2"),
        Term::BinOp(
            ArithOp::Add,
            Box::new(Term::var("L")),
            Box::new(Term::var("R")),
        ),
    )
    .cmp(CmpOp::Eq, Term::var("U"), plus_one("T"))
    .pos("time", vec![Term::var("U")])
    .done();
    // ahead(C, D, T) :- reading(C, L, T), reading(D, K, T), L > K.
    // The self-join lands on the third argument — a position a
    // first-argument index cannot narrow on.
    b.rule(
        "ahead",
        vec![Term::var("C"), Term::var("D"), Term::var("T")],
    )
    .pos(
        "reading",
        vec![Term::var("C"), Term::var("L"), Term::var("T")],
    )
    .pos(
        "reading",
        vec![Term::var("D"), Term::var("K"), Term::var("T")],
    )
    .cmp(CmpOp::Gt, Term::var("L"), Term::var("K"))
    .done();
    // exceeds(C, T) :- reading(C, L, T), limit(M), L > M.
    b.rule("exceeds", vec![Term::var("C"), Term::var("T")])
        .pos(
            "reading",
            vec![Term::var("C"), Term::var("L"), Term::var("T")],
        )
        .pos("limit", vec![Term::var("M")])
        .cmp(CmpOp::Gt, Term::var("L"), Term::var("M"))
        .done();
    // alert(C, U) :- exceeds(C, T), U = T + 1, time(U).
    b.rule("alert", vec![Term::var("C"), Term::var("U")])
        .pos("exceeds", vec![Term::var("C"), Term::var("T")])
        .cmp(CmpOp::Eq, Term::var("U"), plus_one("T"))
        .pos("time", vec![Term::var("U")])
        .done();
    // alert(C, U) :- alert(C, T), U = T + 1, time(U).   (alerts latch)
    b.rule("alert", vec![Term::var("C"), Term::var("U")])
        .pos("alert", vec![Term::var("C"), Term::var("T")])
        .cmp(CmpOp::Eq, Term::var("U"), plus_one("T"))
        .pos("time", vec![Term::var("U")])
        .done();
}

/// Horizon-independent base program for a tank-workload horizon sweep:
/// the dynamics of [`temporal_tank_problem`] with an explicit, fixed
/// overflow `limit` instead of one tied to the horizon. Pair with
/// [`temporal_tank_step`] and [`temporal_tank_requirements`] for
/// [`check_horizon_sweep`](crate::horizon::check_horizon_sweep).
#[must_use]
pub fn temporal_tank_base(limit: i64) -> cpsrisk_asp::Program {
    let mut b = ProgramBuilder::new();
    tank_dynamics(&mut b, limit);
    b.finish()
}

/// The time-slice delta of the tank workload: the single fact `time(t).`.
#[must_use]
pub fn temporal_tank_step(t: usize) -> cpsrisk_asp::Program {
    let mut b = ProgramBuilder::new();
    b.fact("time", [Term::Int(t as i64)]);
    b.finish()
}

/// The per-tank `G(exceeds -> F alert)` requirements of the tank
/// workload, named `r_<tank>`.
#[must_use]
pub fn temporal_tank_requirements() -> Vec<(String, Ltl)> {
    TANKS
        .iter()
        .map(|tank| {
            let formula = parse_ltl(&format!("G(exceeds({tank}) -> F alert({tank}))"))
                .expect("workload formula parses");
            (format!("r_{tank}"), formula)
        })
        .collect()
}

/// The analytically derived minimal violating horizon of the tank sweep
/// at a given `limit`.
///
/// The fastest tank (the reservoir, inflow 3) first exceeds the limit at
/// `t* = limit/3 + 1`; its alert only fires at `t* + 1`, so the horizon
/// ending exactly at `t*` — i.e. `h = t* + 1` — sees the exceedance with
/// no alert in range and violates `G(exceeds -> F alert)`. One step later
/// the latched alert is back in range, so `h = t* + 1` is the unique
/// first violation.
#[must_use]
pub fn temporal_tank_min_violating(limit: i64) -> usize {
    (limit / 3 + 2) as usize
}

/// Minimum number of mitigations that cover all `n` attack chains of
/// [`adversarial_problem`]: each mitigation covers a circular window of 3
/// consecutive chains, so `⌈n/3⌉` selections are necessary and sufficient.
#[must_use]
pub fn adversarial_needed(n: usize) -> usize {
    n.div_ceil(3)
}

/// A search-heavy workload: mitigation selection under a cardinality
/// budget against `n` overlapping attack chains.
///
/// Chains `0..n` are each covered by three mitigations (mitigation `m`
/// covers the circular window `m, m+1, m+2 (mod n)`), at most `budget`
/// mitigations may be selected, and every chain must be blocked. The
/// covering structure makes the instance pigeonhole-hard below the
/// covering number: at `budget = adversarial_needed(n) - 1` the program is
/// unsatisfiable but proving it requires genuine search — unlike every
/// other workload here, propagation decides nothing up front (the WFM
/// leaves all `select` atoms open), so this is the benchmark that
/// exercises the solver's search core rather than the grounder.
///
/// # Panics
///
/// Panics for `n < 3` (the circular windows need at least one full turn).
#[must_use]
pub fn adversarial_problem(n: usize, budget: usize) -> cpsrisk_asp::Program {
    assert!(n >= 3, "adversarial_problem needs n >= 3");
    let n_i = n as i64;
    let mut b = ProgramBuilder::new();
    for i in 0..n_i {
        b.fact("chain", [Term::Int(i)]);
        b.fact("mitigation", [Term::Int(i)]);
        for w in 0..3 {
            b.fact("covers", [Term::Int(i), Term::Int((i + w) % n_i)]);
        }
    }
    // { select(M) : mitigation(M) } budget.
    b.choice(None, Some(budget as u32))
        .element_if(
            "select",
            [Term::var("M")],
            vec![cpsrisk_asp::builder::pos("mitigation", [Term::var("M")])],
        )
        .done();
    // blocked(C) :- select(M), covers(M, C).
    b.rule("blocked", [Term::var("C")])
        .pos("select", [Term::var("M")])
        .pos("covers", [Term::var("M"), Term::var("C")])
        .done();
    // :- chain(C), not blocked(C).
    b.constraint()
        .pos("chain", [Term::var("C")])
        .neg("blocked", [Term::var("C")])
        .done();
    b.show("select", 1);
    b.finish()
}

/// Deterministic 64-bit mixer (splitmix64 finalizer over a seed and two
/// coordinates). The EPA crate deliberately carries no `rand` dependency,
/// so the catalog workload derives all its structural choices from this.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Number of security zones in [`catalog_problem`]'s covering block.
#[must_use]
pub fn catalog_zone_count(chains: usize) -> usize {
    chains.clamp(4, 12)
}

/// The attacker budget at which `r_zone` margin queries on
/// [`catalog_problem`] are unsatisfiable but require genuine search to
/// refute: one below the zone covering number (each spreader covers a
/// circular window of 3 zones, so `⌈zones/3⌉` spreaders are needed).
#[must_use]
pub fn catalog_margin_budget(chains: usize) -> u32 {
    (catalog_zone_count(chains).div_ceil(3) - 1) as u32
}

/// A catalog-scale plant: `chains` parallel control chains (engineering
/// workstation → `depth` typed devices → feed valve → buffer tank) with
/// cross-chain fan-out edges at odd depths and a shared SCADA/historian
/// fan-in, plus an isolated ring of `catalog_zone_count` security zones
/// covered by spreader components. `depth` is sized so the model carries
/// at least `components` elements.
///
/// Mutations mix spontaneous faults (workstation compromise, stuck
/// valves, zone spreaders) with technique-induced fault modes drawn from
/// a seeded [`cpsrisk_threat::generator`] catalog sized to the plant
/// ([`GeneratorConfig::scaled`]); mitigation options come from the same
/// catalog's technique→mitigation fan-out. Everything is deterministic in
/// `(components, chains, seed)`.
///
/// The zone ring is deliberately unreachable from the chain graph: its
/// covering structure is what makes `r_zone` attack-margin queries
/// ([`Query::Margin`]) pigeonhole-hard below the covering number, giving
/// catalog sweeps an honest cheap-vs-expensive query skew.
///
/// # Panics
///
/// Never panics for `chains ≥ 1` (identifiers are generated valid).
#[must_use]
pub fn catalog_problem(components: usize, chains: usize, seed: u64) -> EpaProblem {
    let chains = chains.max(1);
    let zones = catalog_zone_count(chains);
    let config = GeneratorConfig::scaled(components);
    let catalog = generate(&config, seed);
    let types = &config.component_types;

    let mut m = SystemModel::new(format!("catalog_{components}x{chains}"));
    m.add_element("scada", "SCADA Server", ElementKind::ApplicationComponent)
        .expect("valid id");
    m.add_element("historian", "Plant Historian", ElementKind::Node)
        .expect("valid id");
    m.add_relation("scada", "historian", RelationKind::Flow)
        .expect("endpoints exist");

    // Workstation + valve + tank per chain, zone + spreader per zone,
    // SCADA + historian; the remainder becomes per-chain device depth.
    let fixed = 3 * chains + 2 * zones + 2;
    let depth = components.saturating_sub(fixed).div_ceil(chains).max(2);

    let mut mutations: Vec<CandidateMutation> = Vec::new();
    let mut seen_induced: BTreeSet<(String, String)> = BTreeSet::new();
    let mut blocks: BTreeMap<String, Vec<String>> = BTreeMap::new();

    for c in 0..chains {
        let ew = format!("ew{c}");
        m.add_element(
            &ew,
            &format!("Engineering Workstation {c}"),
            ElementKind::Node,
        )
        .expect("valid id");
        m.add_relation(&ew, "scada", RelationKind::Flow)
            .expect("endpoints exist");
        mutations.push(CandidateMutation::spontaneous(
            &format!("f_{ew}"),
            &ew,
            "compromised",
        ));
        let mut prev = ew;
        for i in 0..depth {
            let id = format!("d{c}_{i}");
            let ty = &types[(mix(seed, c as u64, i as u64) % types.len() as u64) as usize];
            let e = m
                .add_element(&id, &format!("Chain {c} Device {i}"), ElementKind::Device)
                .expect("valid id");
            e.type_ref = Some(ty.clone());
            m.add_relation(&prev, &id, RelationKind::Flow)
                .expect("endpoints exist");
            // Up to two technique-induced fault modes per device, drawn
            // from the catalog entries applicable to its assigned type.
            let techs = catalog.techniques_for_type(ty);
            for k in 0..2u64 {
                if techs.is_empty() {
                    break;
                }
                let pick = mix(seed ^ 0x7454, mix(seed, c as u64, i as u64), k);
                let t = techs[(pick % techs.len() as u64) as usize];
                if !seen_induced.insert((id.clone(), t.induced_fault.clone())) {
                    continue;
                }
                let fid = format!("f_{id}_{}", t.induced_fault);
                for mid in &t.mitigations {
                    blocks.entry(mid.clone()).or_default().push(fid.clone());
                }
                mutations.push(CandidateMutation {
                    id: fid,
                    component: id.clone(),
                    mode: t.induced_fault.clone(),
                    source: MutationSource::Technique(t.id.clone()),
                    severity: Qual::High,
                    likelihood: match t.difficulty {
                        Qual::VeryLow | Qual::Low => Qual::High,
                        Qual::Medium => Qual::Medium,
                        Qual::High | Qual::VeryHigh => Qual::Low,
                    },
                });
            }
            prev = id;
        }
        let vl = format!("vl{c}");
        m.add_element(&vl, &format!("Feed Valve {c}"), ElementKind::Equipment)
            .expect("valid id");
        m.add_relation(&prev, &vl, RelationKind::Flow)
            .expect("endpoints exist");
        mutations.push(CandidateMutation::spontaneous(
            &format!("f_{vl}"),
            &vl,
            "stuck_at_closed",
        ));
        let tank = format!("tank{c}");
        m.add_element(&tank, &format!("Buffer Tank {c}"), ElementKind::Equipment)
            .expect("valid id");
        m.insert_relation(
            Relation::new(&vl, &tank, RelationKind::Flow).with_flow(FlowKind::Quantity),
        )
        .expect("endpoints exist");
    }
    // Cross-chain fan-out at odd depths (second pass: every device exists).
    if chains > 1 {
        for c in 0..chains {
            for i in (1..depth).step_by(2) {
                m.add_relation(
                    &format!("d{c}_{i}"),
                    &format!("d{}_{i}", (c + 1) % chains),
                    RelationKind::Flow,
                )
                .expect("endpoints exist");
            }
        }
    }
    // The zone covering block. Spreaders have no incoming edges, so no
    // chain compromise ever reaches a zone — only the attacker's own
    // spreader choices do, which keeps the covering bound exact.
    for z in 0..zones {
        m.add_element(&format!("zn{z}"), &format!("Zone {z}"), ElementKind::Device)
            .expect("valid id");
        m.add_element(
            &format!("sp{z}"),
            &format!("Spreader {z}"),
            ElementKind::Device,
        )
        .expect("valid id");
        mutations.push(CandidateMutation::spontaneous(
            &format!("f_sp{z}"),
            &format!("sp{z}"),
            "compromised",
        ));
    }
    for z in 0..zones {
        for off in 0..3 {
            m.add_relation(
                &format!("sp{z}"),
                &format!("zn{}", (z + off) % zones),
                RelationKind::Flow,
            )
            .expect("endpoints exist");
        }
    }

    let mut requirements: Vec<Requirement> = (0..chains)
        .map(|c| {
            let vl = format!("vl{c}");
            Requirement::all_of(
                &format!("r_chain{c}"),
                &format!("feed valve {c} must not stick"),
                &[(vl.as_str(), "stuck_at_closed")],
            )
        })
        .collect();
    let zone_ids: Vec<String> = (0..zones).map(|z| format!("zn{z}")).collect();
    let pairs: Vec<(&str, &str)> = zone_ids
        .iter()
        .map(|z| (z.as_str(), "compromised"))
        .collect();
    requirements.push(Requirement::all_of(
        "r_zone",
        "no plant-wide zone compromise",
        &pairs,
    ));

    let mut mitigations: Vec<MitigationOption> = (0..chains)
        .map(|c| {
            MitigationOption::new(
                &format!("m_ew{c}"),
                &format!("Harden Workstation {c}"),
                &[&format!("f_ew{c}")],
                100,
            )
        })
        .collect();
    for (mid, faults) in blocks {
        let entry = catalog
            .mitigation(&mid)
            .expect("generated techniques reference catalog mitigations");
        let refs: Vec<&str> = faults.iter().map(String::as_str).collect();
        mitigations.push(MitigationOption::new(&mid, &entry.name, &refs, entry.cost));
    }

    EpaProblem::new(m, mutations, requirements, mitigations).expect("catalog problem validates")
}

/// Requirement ids of `problem` ordered cheapest-first by the PR 5
/// grounding-size predictor: each requirement's contested search space is
/// proxied by its widest DNF violation group times the predicted number of
/// `chosen/1` atoms of the [`EncodeMode::Contested`] encoding. On
/// [`catalog_problem`] this puts the single-literal `r_chain*` margins
/// first and the wide `r_zone` covering margin last — the stratified order
/// [`catalog_queries`] uses to cluster expensive queries at the stream
/// tail.
#[must_use]
pub fn catalog_requirements_ranked(problem: &EpaProblem, budget: u32) -> Vec<String> {
    let program = encode(problem, &EncodeMode::Contested { budget });
    let sizes = predict_sizes(&program);
    let chosen = sizes
        .bound("chosen", 1)
        .map_or(problem.mutations.len() as f64, |b| b.atoms);
    let mut ranked: Vec<(f64, String)> = problem
        .requirements
        .iter()
        .map(|r| {
            let width = r.violated_when.iter().map(Vec::len).max().unwrap_or(0);
            (width as f64 * chosen, r.id.clone())
        })
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    ranked.into_iter().map(|(_, id)| id).collect()
}

/// The catalog query stream, lazily generated: every scenario's outcome
/// query in [`ScenarioSpace`] cardinality order, then margin queries
/// sampled every `margin_every` scenarios, grouped by
/// [`catalog_requirements_ranked`] rank (`ranked` cheapest-first) so the
/// expensive wide-requirement margins cluster at the tail — the schedule
/// shape that starves static chunking and rewards a shared work queue.
/// `margin_every == 0` disables margin queries.
pub fn catalog_queries<'a>(
    space: &'a ScenarioSpace,
    ranked: &[String],
    margin_every: usize,
) -> impl Iterator<Item = Query> + 'a {
    let ranked: Vec<String> = if margin_every == 0 {
        Vec::new()
    } else {
        ranked.to_vec()
    };
    let stride = ranked.len().max(1) * margin_every.max(1);
    let margins = ranked.into_iter().enumerate().flat_map(move |(rank, req)| {
        space
            .iter()
            .skip(rank * margin_every)
            .step_by(stride)
            .map(move |scenario| Query::Margin {
                scenario,
                requirement: req.clone(),
            })
    });
    space.iter().map(Query::Outcome).chain(margins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioSpace};
    use crate::session::{Answer, Session};
    use crate::topology::TopologyAnalysis;
    use cpsrisk_asp::Solver;

    #[test]
    fn chain_problem_scales_and_propagates() {
        for n in [1, 3, 6] {
            let p = chain_problem(n);
            assert_eq!(p.mutations.len(), n + 2);
            // Every fault subset is a scenario: 2^(n+2) of them; at most
            // two simultaneous faults keeps the space quadratic.
            let all = ScenarioSpace::new(&p, usize::MAX).scenario_count();
            assert_eq!(all, 1 << (n + 2));
            let k = n as u128 + 2;
            let pairs = ScenarioSpace::new(&p, 2).scenario_count();
            assert_eq!(pairs, 1 + k + k * (k - 1) / 2);
            // Compromising the workstation reaches the valve down the chain.
            let out = TopologyAnalysis::new(&p).evaluate(&Scenario::of(&["f_ew"]));
            assert!(out.violated.contains("r1"), "chain length {n}");
        }
    }

    #[test]
    fn grid_problem_scales_and_propagates() {
        for (w, h) in [(2, 2), (4, 3)] {
            let p = grid_problem(w, h);
            assert_eq!(p.mutations.len(), 3, "constant mutation set");
            assert_eq!(p.model.elements().count(), w * h + 2, "grid {w}x{h}");
            // A workstation compromise reaches the valve across the grid.
            let out = TopologyAnalysis::new(&p).evaluate(&Scenario::of(&["f_ew"]));
            assert!(out.violated.contains("r1"), "grid {w}x{h}");
        }
    }

    #[test]
    fn adversarial_problem_is_sat_at_the_covering_number_and_unsat_below() {
        for n in [6, 9, 10] {
            let needed = adversarial_needed(n);
            let sat = adversarial_problem(n, needed)
                .solve()
                .expect("solves within budget");
            assert!(!sat.is_empty(), "n={n}: coverable at budget {needed}");
            for m in &sat {
                assert!(m.atoms_of("select").len() <= needed, "budget respected");
            }
            let unsat = adversarial_problem(n, needed - 1)
                .solve()
                .expect("solves within budget");
            assert!(unsat.is_empty(), "n={n}: pigeonhole-hard below {needed}");
        }
    }

    #[test]
    fn adversarial_refutation_is_certified_and_matches_the_plain_verdict() {
        // One budget below the covering number: UNSAT, refuted through
        // conflict-driven search, and the proof-logging run must reach the
        // same verdict with a certificate the independent checker accepts
        // (learned nogoods replayed by reverse unit propagation).
        let n = 9;
        let program = adversarial_problem(n, adversarial_needed(n) - 1);
        let ground = cpsrisk_asp::Grounder::new().ground(&program).unwrap();
        let plain = Solver::new(&ground)
            .enumerate(&cpsrisk_asp::SolveOptions::default())
            .unwrap();
        assert!(
            plain.models.is_empty() && plain.exhausted,
            "UNSAT by construction"
        );
        assert!(
            plain.decisions > 0 && plain.conflicts > 0,
            "refuted by search"
        );
        let mut solver = Solver::new(&ground);
        let certified = solver
            .enumerate(&cpsrisk_asp::SolveOptions {
                certify: true,
                ..cpsrisk_asp::SolveOptions::default()
            })
            .unwrap();
        assert_eq!(certified.models.len(), plain.models.len());
        assert_eq!(certified.exhausted, plain.exhausted);
        let proof = solver.take_proof().expect("certified call logs a proof");
        assert!(!proof.is_empty());
        let report = cpsrisk_asp::check_proof(&ground, &proof).expect("certificate checks");
        assert_eq!(report.unsats, 1, "the refutation is audited");
        assert!(report.learned > 0, "learned nogoods are RUP-replayed");
    }

    #[test]
    #[ignore = "benchmark scale (about 20 s to check in release); run in release with --ignored"]
    fn benchmark_adversarial_refutation_is_certified() {
        // The `solve` benchmark's search-bound file: about ten thousand
        // conflicts, most resolving through cardinality inferences, all of
        // which the certificate carries as card steps for the checker.
        let n = 33;
        let program = adversarial_problem(n, adversarial_needed(n) - 1);
        let ground = cpsrisk_asp::Grounder::new().ground(&program).unwrap();
        // The search itself is pinned: a change to the engine's data
        // layout must make the same decisions, propagations and learned
        // nogoods, so these counters move only with a change of algorithm.
        let mut plain = Solver::new(&ground);
        let result = plain
            .enumerate(&cpsrisk_asp::SolveOptions::default())
            .unwrap();
        assert_eq!(
            (
                result.decisions,
                result.conflicts,
                plain.propagations(),
                plain.restarts(),
                plain.learned_nogoods()
            ),
            (12_435, 10_390, 637_838, 44, 5_269),
            "decisions, conflicts, propagations, restarts, retained learned nogoods"
        );
        // Two certified runs write the same text: the search shrinks its
        // learned database several times, and the deletions it logs must
        // not depend on the process.
        let certify = || {
            let mut solver = Solver::new(&ground);
            let certified = solver
                .enumerate(&cpsrisk_asp::SolveOptions {
                    certify: true,
                    ..cpsrisk_asp::SolveOptions::default()
                })
                .unwrap();
            assert!(
                certified.models.is_empty() && certified.exhausted,
                "UNSAT one below the covering number"
            );
            assert_eq!(
                (certified.decisions, certified.conflicts),
                (result.decisions, result.conflicts),
                "logging a proof does not change the search"
            );
            solver.take_proof().expect("certified call logs a proof")
        };
        let proof = certify();
        let text = proof.to_text(None, usize::MAX).unwrap();
        assert!(
            text.lines().any(|l| l.starts_with("del ")),
            "the database shrank"
        );
        assert!(
            text == certify().to_text(None, usize::MAX).unwrap(),
            "two certified runs differ"
        );
        let report = cpsrisk_asp::check_proof(&ground, &proof).expect("certificate checks");
        assert_eq!(report.unsats, 1, "the refutation is audited");
    }

    #[test]
    fn temporal_tank_problem_grounds_tight_and_the_wfm_decides_it() {
        // The deterministic unrolled dynamics need no search: the ground
        // program is tight and its well-founded model is total and equal
        // to the one answer set.
        let ground = cpsrisk_asp::Grounder::new()
            .ground(&temporal_tank_problem(8))
            .unwrap();
        let mut solver = Solver::new(&ground);
        assert!(solver.tight());
        let wfm = solver.wfm();
        assert!(wfm.total() && !wfm.inconsistent);
        let wfm_true: BTreeSet<String> = wfm
            .true_atoms()
            .map(|id| ground.atom(id).to_string())
            .collect();
        let result = solver
            .enumerate(&cpsrisk_asp::SolveOptions::default())
            .unwrap();
        assert_eq!(result.models.len(), 1);
        assert_eq!(result.decisions, 0, "decided without branching");
        let model: BTreeSet<String> = result.models[0]
            .atoms
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(model, wfm_true);
    }

    #[test]
    fn catalog_problem_is_deterministic_and_meets_its_size_floor() {
        let p = catalog_problem(120, 12, 7);
        assert!(
            p.model.elements().count() >= 120,
            "got {} elements",
            p.model.elements().count()
        );
        assert!(
            p.mutations.len() >= 40,
            "got {} mutations",
            p.mutations.len()
        );
        assert_eq!(p.requirements.len(), 13, "12 chain requirements + r_zone");
        assert!(p.mitigations.len() > 12, "catalog mitigations beyond m_ew*");
        assert!(ScenarioSpace::new(&p, 2).scenario_count() >= 1_000);

        let q = catalog_problem(120, 12, 7);
        let ids =
            |p: &EpaProblem| -> Vec<String> { p.mutations.iter().map(|f| f.id.clone()).collect() };
        assert_eq!(ids(&p), ids(&q), "same seed, same problem");
    }

    #[test]
    fn catalog_chain_compromise_fans_out_across_chains() {
        let p = catalog_problem(40, 4, 1);
        let out = TopologyAnalysis::new(&p).evaluate(&Scenario::of(&["f_ew0"]));
        // The workstation compromise walks its own chain and crosses the
        // odd-depth fan-out edges into the neighbours' valves.
        assert!(out.violated.contains("r_chain0"));
        assert!(out.violated.contains("r_chain1"));
        // The zone block is unreachable from the chain graph.
        assert!(!out.violated.contains("r_zone"));
    }

    #[test]
    fn catalog_zone_margin_separates_at_the_covering_number() {
        let p = catalog_problem(40, 4, 1);
        let nominal = Scenario::nominal();
        let below = catalog_margin_budget(4);
        assert_eq!(catalog_zone_count(4), 4);
        assert_eq!(below, 1, "covering number 2 at 4 zones");
        let attack_exists = |budget, requirement: &str| {
            let query = Query::Margin {
                scenario: nominal.clone(),
                requirement: requirement.to_owned(),
            };
            Session::new(&p, Some(budget))
                .unwrap()
                .answer(&query)
                .unwrap()
                == Answer::Margin(true)
        };
        assert!(!attack_exists(below, "r_zone"));
        assert!(attack_exists(below + 1, "r_zone"));
        // Chain margins are cheap by comparison: one chosen fault breaks
        // a valve requirement.
        assert!(attack_exists(1, "r_chain0"));
    }

    #[test]
    fn catalog_queries_cluster_expensive_margins_at_the_tail() {
        let p = catalog_problem(40, 4, 1);
        let budget = catalog_margin_budget(4);
        let ranked = catalog_requirements_ranked(&p, budget);
        assert_eq!(ranked.len(), p.requirements.len());
        assert_eq!(
            ranked.last().map(String::as_str),
            Some("r_zone"),
            "the wide covering requirement predicts most expensive"
        );
        let space = ScenarioSpace::new(&p, 1);
        let n = usize::try_from(space.scenario_count()).unwrap();
        let queries: Vec<Query> = catalog_queries(&space, &ranked, 4).collect();
        assert!(queries.len() > n, "margin queries were sampled");
        assert!(queries[..n].iter().all(|q| matches!(q, Query::Outcome(_))));
        assert!(queries[n..]
            .iter()
            .all(|q| matches!(q, Query::Margin { .. })));
        match queries.last() {
            Some(Query::Margin { requirement, .. }) => assert_eq!(requirement, "r_zone"),
            other => panic!("stream should end on an r_zone margin, got {other:?}"),
        }
        // Disabling sampling leaves a pure outcome stream.
        assert_eq!(catalog_queries(&space, &ranked, 0).count(), n);
    }

    #[test]
    fn temporal_tank_problem_is_deterministic_and_satisfied() {
        let p = temporal_tank_problem(8);
        let models = p.solve().expect("solves");
        assert_eq!(models.len(), 1, "deterministic dynamics");
        let m = &models[0];
        // reservoir fills 3/step: level 21 at the last of 8 steps.
        assert!(m.contains_str("reading(reservoir,21,7)"));
        assert!(m.contains_str("ahead(reservoir,boiler,3)"));
        // Every tank's G(exceeds -> F alert) holds: the slow boiler never
        // exceeds, the fast tanks exceed early enough for alerts to latch.
        for tank in ["boiler", "mixer", "reservoir"] {
            assert!(m.contains_str(&format!("ltl_sat(r_{tank})")), "{tank}");
        }
    }
}
