//! Byte-mutation fuzzing of certificate reading and checking.
//!
//! The corpus is the certificate `cpsrisk solve --certify` writes for each
//! shipped `examples/*.lp` program, plus the UNSAT certificate of the
//! adversarial covering program `adversarial_problem(9, 2)`, whose bounded
//! choice puts cardinality (`card`) steps in it. Each case mutates one of
//! them —
//! overwritten, inserted and deleted bytes, proof keywords and extreme
//! numbers spliced in, truncation — and runs the text through
//! [`ProofLog::from_text`] and, when it parses, through [`check_proof`]
//! against the program the certificate was written for. Neither may
//! panic: reading ends in a log or an [`AspError`], checking in a report
//! or a [`CheckError`](cpsrisk::asp::CheckError).
//!
//! A case is drawn from a `u64` seed, and a panic is reported with that
//! seed. The test framework does not shrink, so a failing seed is kept
//! as it is: add it to [`REGRESSION_SEEDS`], which replays every seed on
//! each run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::OnceLock;

use proptest::prelude::*;

use cpsrisk::asp::proof::{ProofStep, DEFAULT_TEXT_CAP};
use cpsrisk::asp::{
    check_proof, AspError, GroundProgram, Grounder, ProofLog, SolveOptions, Solver,
};
use cpsrisk::epa::workload::adversarial_problem;

/// Seeds of cases that once failed, replayed on every run.
const REGRESSION_SEEDS: &[u64] = &[];

/// One certificate and the ground program it certifies.
struct Certified {
    ground: GroundProgram,
    text: String,
    /// Where the proof steps start, after the embedded program source.
    steps_at: usize,
}

/// The corpus, built once per test binary.
fn corpus() -> &'static [Certified] {
    static CORPUS: OnceLock<Vec<Certified>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut corpus = certify_examples();
        corpus.push(certify(&adversarial_problem(9, 2).to_string()));
        corpus
    })
}

/// Read each example and certify it.
fn certify_examples() -> Vec<Certified> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "lp"))
        .collect();
    paths.sort();
    assert!(
        !paths.is_empty(),
        "no examples/*.lp under {}",
        dir.display()
    );
    paths
        .iter()
        .map(|path| certify(&std::fs::read_to_string(path).expect("readable example")))
        .collect()
}

/// Solve a program as `cpsrisk solve --certify` does and keep its
/// certificate text, embedded program source included.
fn certify(src: &str) -> Certified {
    let program = cpsrisk::asp::parse(src).expect("corpus programs parse");
    let ground = Grounder::new()
        .ground(&program)
        .expect("corpus programs ground");
    let opts = SolveOptions {
        certify: true,
        ..SolveOptions::default()
    };
    let mut solver = Solver::new(&ground);
    if ground.minimize.is_empty() {
        solver.enumerate(&opts).expect("corpus programs solve");
    } else {
        solver.optimize(&opts).expect("corpus programs solve");
    }
    let log = solver.take_proof().expect("a certified solve logs a proof");
    let text = log
        .to_text(Some(src), DEFAULT_TEXT_CAP)
        .expect("under the cap");
    drop(solver);
    let steps_at = text.find(src).expect("the source is embedded") + src.len();
    Certified {
        ground,
        text,
        steps_at,
    }
}

/// SplitMix64: the case's own RNG, so a seed alone replays a case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Fragments worth splicing in: the format's keywords and separators,
/// zero, negative and extreme numbers, non-ASCII text.
const FRAGMENTS: &[&str] = &[
    "\n",
    " ",
    "|",
    "-",
    "0",
    "1",
    "-1",
    "atoms ",
    "program ",
    "body ",
    "ax ",
    "wfm ",
    "card ",
    "unf ",
    "stab ",
    "call ",
    "learn ",
    "del ",
    "model ",
    "unsat",
    "truncated",
    "end\n",
    "cpsrisk-proof/1\n",
    "4294967295",
    "4294967296",
    "9223372036854775807",
    "-9223372036854775808",
    "99999999999999999999",
    "é",
    "\u{0}",
    "\r\n",
];

/// The text of case `seed`: one certificate with 1–4 mutations, and the
/// index of the certificate it came from. Three mutations in four land in
/// the proof steps, the rest anywhere (the embedded source included).
fn mutate(corpus: &[Certified], seed: u64) -> (usize, String) {
    let mut rng = Rng(seed);
    let which = rng.below(corpus.len());
    let mut bytes = corpus[which].text.clone().into_bytes();
    for _ in 0..=rng.below(4) {
        let lo = if rng.below(4) == 0 {
            0
        } else {
            corpus[which].steps_at.min(bytes.len())
        };
        let at = lo + rng.below(bytes.len() + 1 - lo);
        match rng.below(5) {
            0 if at < bytes.len() => bytes[at] = rng.next() as u8,
            1 => {
                let fragment = FRAGMENTS[rng.below(FRAGMENTS.len())];
                bytes.splice(at..at, fragment.bytes());
            }
            2 => {
                let end = (at + 1 + rng.below(8)).min(bytes.len());
                bytes.drain(at.min(end)..end);
            }
            3 => bytes.truncate(at),
            _ => {
                // Duplicate a slice: repeated lines and sections.
                let end = (at + rng.below(64)).min(bytes.len());
                let copy = bytes[at..end].to_vec();
                bytes.splice(at..at, copy);
            }
        }
    }
    // Cut multi-byte characters become U+FFFD, itself non-ASCII input.
    (which, String::from_utf8_lossy(&bytes).into_owned())
}

/// Read and check `text` against `ground`, describing the first broken
/// promise.
fn check(ground: &GroundProgram, text: &str) -> Result<(), String> {
    let run = catch_unwind(AssertUnwindSafe(|| {
        ProofLog::from_text(text).map(|(_, log)| check_proof(ground, &log).map(|_| ()))
    }));
    match run {
        Err(_) => Err("reading or checking the certificate panicked".to_owned()),
        Ok(Err(e)) if !matches!(e, AspError::Parse(_)) => {
            Err(format!("reading returned a non-syntax error: {e:?}"))
        }
        Ok(_) => Ok(()),
    }
}

#[test]
fn unmutated_certificates_check() {
    let mut card_steps = 0;
    for c in corpus() {
        let (_, log) = ProofLog::from_text(&c.text).expect("a written certificate reads back");
        check_proof(&c.ground, &log).expect("a written certificate checks");
        card_steps += log
            .steps
            .iter()
            .filter(|s| matches!(s, ProofStep::Card { .. }))
            .count();
    }
    assert!(card_steps > 0, "the corpus has cardinality steps to mutate");
}

#[test]
fn regression_cases_stay_fixed() {
    let corpus = corpus();
    for &seed in REGRESSION_SEEDS {
        let (which, text) = mutate(corpus, seed);
        if let Err(e) = check(&corpus[which].ground, &text) {
            panic!("seed {seed:#x}: {e}\n--- certificate ---\n{text}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_certificates_never_panic_the_checker(seed in any::<u64>()) {
        let corpus = corpus();
        let (which, text) = mutate(corpus, seed);
        let outcome = check(&corpus[which].ground, &text);
        prop_assert!(
            outcome.is_ok(),
            "seed {:#x} (add it to REGRESSION_SEEDS): {}\n--- certificate ---\n{}",
            seed,
            outcome.unwrap_err(),
            text
        );
    }
}
