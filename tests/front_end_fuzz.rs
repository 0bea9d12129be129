//! Byte-mutation fuzzing of the ASP text front end.
//!
//! Each case mutates one of the shipped `examples/*.lp` programs or a
//! temporal tank unrolling — overwritten, inserted and deleted bytes,
//! non-ASCII text, truncation — and runs the text through the tokenizer,
//! the parser and the linter. None of them may panic: the tokenizer and
//! the parser return a program or a typed [`AspError`], the linter returns
//! diagnostics, with an `A000` exactly when the text does not parse.
//!
//! A case is drawn from a `u64` seed, and a panic is reported with that
//! seed. The test framework does not shrink, so a failing seed is kept
//! as it is: add it to [`REGRESSION_SEEDS`], which replays every seed on
//! each run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use proptest::prelude::*;

use cpsrisk::asp::lexer::tokenize;
use cpsrisk::asp::lint::lint_source;
use cpsrisk::asp::parser::{parse_program, parse_program_spanned};
use cpsrisk::asp::AspError;
use cpsrisk::epa::temporal_tank_problem;

/// Seeds of cases that once failed, replayed on every run.
const REGRESSION_SEEDS: &[u64] = &[];

/// Hand-written inputs that once panicked or hung.
const REGRESSION_TEXTS: &[&str] = &[
    // An interval whose width overflows `i64`.
    "p(-5..9223372036854775807).",
    "p(-9223372036854775807..9223372036854775807).",
];

/// The programs the mutations start from.
fn corpus() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut texts: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("examples directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "lp"))
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("readable example");
            (path.display().to_string(), text)
        })
        .collect();
    texts.sort();
    assert!(
        !texts.is_empty(),
        "no examples/*.lp under {}",
        dir.display()
    );
    let mut corpus: Vec<String> = texts.into_iter().map(|(_, text)| text).collect();
    corpus.push(temporal_tank_problem(4).to_string());
    corpus
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

/// Fragments worth splicing in: syntax, non-ASCII text, huge numbers.
const FRAGMENTS: &[&str] = &[
    "(",
    ")",
    ".",
    ",",
    ":-",
    "not ",
    "{",
    "}",
    ";",
    ":",
    "..",
    "\"",
    "%",
    "\n",
    "#show",
    "#minimize",
    "#",
    "!",
    "=",
    "<=",
    "@",
    "_",
    "X",
    "é",
    "→",
    "\u{0}",
    "\u{feff}",
    "9223372036854775807",
    "99999999999999999999",
    "-",
    "1..",
    "\\",
    "\r\n",
];

/// The text of case `seed`: one corpus program with 1–4 mutations.
fn mutate(corpus: &[String], seed: u64) -> String {
    let mut rng = Rng(seed);
    let mut bytes = corpus[rng.below(corpus.len())].clone().into_bytes();
    for _ in 0..=rng.below(4) {
        let at = rng.below(bytes.len() + 1);
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
                // Duplicate a slice: repeated statements, nested brackets.
                let end = (at + rng.below(64)).min(bytes.len());
                let copy = bytes[at..end].to_vec();
                bytes.splice(at..at, copy);
            }
        }
    }
    // Cut multi-byte characters become U+FFFD, itself non-ASCII input.
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Run the front end over `src`, describing the first broken promise.
fn check(src: &str) -> Result<(), String> {
    let run = catch_unwind(AssertUnwindSafe(|| {
        let tokens = tokenize(src);
        let parsed = parse_program(src);
        let spanned = parse_program_spanned(src);
        let diags = lint_source(src);
        (tokens, parsed, spanned, diags)
    }));
    let Ok((tokens, parsed, spanned, diags)) = run else {
        return Err("the front end panicked".to_owned());
    };
    if let Err(e) = &tokens {
        if !matches!(e, AspError::Parse(_)) {
            return Err(format!("tokenize returned a non-syntax error: {e:?}"));
        }
        if parsed.is_ok() || spanned.is_ok() {
            return Err("a text that does not tokenize parsed".to_owned());
        }
    }
    let a000 = diags.iter().any(|d| d.code == "A000");
    if a000 != spanned.is_err() {
        return Err(format!(
            "A000 reported: {a000}, lenient parse failed: {}",
            spanned.is_err()
        ));
    }
    Ok(())
}

#[test]
fn regression_cases_stay_fixed() {
    let corpus = corpus();
    for &seed in REGRESSION_SEEDS {
        let src = mutate(&corpus, seed);
        if let Err(e) = check(&src) {
            panic!("seed {seed:#x}: {e}\n--- input ---\n{src}");
        }
    }
    for src in REGRESSION_TEXTS {
        if let Err(e) = check(src) {
            panic!("{e}\n--- input ---\n{src}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_programs_never_panic_the_front_end(seed in any::<u64>()) {
        let corpus = corpus();
        let src = mutate(&corpus, seed);
        let outcome = check(&src);
        prop_assert!(
            outcome.is_ok(),
            "seed {:#x} (add it to REGRESSION_SEEDS): {}\n--- input ---\n{}",
            seed,
            outcome.unwrap_err(),
            src
        );
    }
}
