#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Qualitative risk quantization (Fig. 1, step 6 and §IV-B / §V).
//!
//! Qualitative risk assessment classifies risk attributes into discrete
//! categories instead of computing precise numbers. This crate implements
//! the standards the paper builds on:
//!
//! * [`ora`] — the Open FAIR Risk Analysis (O-RA) 5×5 risk matrix, exactly
//!   Table I of the paper,
//! * [`fair`] — the O-RA/FAIR risk-attribute tree of Fig. 2 (Risk ← Loss
//!   Event Frequency × Loss Magnitude, LEF ← TEF × Vulnerability, …) with a
//!   full derivation trace for explainability,
//! * [`iec61508`] — the IEC 61508 qualitative hazard framework: six
//!   likelihood categories × four consequence categories → risk classes
//!   I–IV,
//! * [`sensitivity`] — §V-A qualitative sensitivity analysis over uncertain
//!   factors (is the output stable under the factor's possible values?),
//! * [`rough`] — §V-B Rough Set Theory: indiscernibility, lower/upper
//!   approximations, positive/negative/boundary regions, attribute
//!   reducts, and certain/possible decision rules — used to handle
//!   uncertain EPA verdicts.

pub mod fair;
pub mod iec61508;
pub mod ora;
pub mod rough;
pub mod sensitivity;

pub use fair::{FairInput, RiskDerivation};
pub use iec61508::{Consequence, Likelihood, RiskClass};
pub use ora::risk as ora_risk;
pub use rough::{DecisionTable, RoughApproximation};
pub use sensitivity::{factor_sensitivity, SensitivityReport};

#[cfg(test)]
mod tests {
    use super::DecisionTable;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random decision table with `rows` objects over `attrs` binary
    /// condition attributes; the decision depends on the first two
    /// attributes plus injected noise, producing a non-trivial boundary
    /// region.
    fn random_decision_table(rows: usize, attrs: usize, seed: u64) -> DecisionTable {
        let mut rng = StdRng::seed_from_u64(seed);
        let names: Vec<String> = (0..attrs).map(|i| format!("a{i}")).collect();
        let mut table = DecisionTable::new(&names);
        for _ in 0..rows {
            let values: Vec<&str> = (0..attrs)
                .map(|_| if rng.gen_bool(0.5) { "1" } else { "0" })
                .collect();
            let noisy = rng.gen_bool(0.1);
            let hazard = (values[0] == "1" && values[1 % attrs] == "1") ^ noisy;
            table.add_row(&values, if hazard { "hazard" } else { "safe" });
        }
        table
    }

    #[test]
    fn random_decision_table_has_boundary() {
        let t = random_decision_table(200, 4, 3);
        assert_eq!(t.len(), 200);
        let approx = t.approximate_all("hazard");
        assert!(!approx.boundary().is_empty(), "noise creates roughness");
    }
}
