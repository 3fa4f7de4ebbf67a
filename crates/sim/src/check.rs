//! Deterministic property-based testing, in-repo.
//!
//! A minimal hedgehog-style harness: generators produce a lazily-shrinkable
//! [`Case`] (a rose tree of candidate simplifications), and [`check`] runs a
//! property over many seeded cases. Every case seed is derived
//! deterministically from the property name, so runs are reproducible
//! without any recorded state; a failure prints a `PILGRIM_CHECK_SEED=…`
//! line, and setting that environment variable replays exactly the failing
//! case (then shrinks and reports it again).
//!
//! # Examples
//!
//! ```
//! use pilgrim_sim::check::{check, int_range, vecs};
//!
//! // 100 deterministic cases of up-to-8-element vectors of small ints.
//! check("sum_is_commutative", &vecs(int_range(-100, 100), 8), |xs| {
//!     let forward: i64 = xs.iter().sum();
//!     let backward: i64 = xs.iter().rev().sum();
//!     if forward == backward {
//!         Ok(())
//!     } else {
//!         Err(format!("{forward} != {backward}"))
//!     }
//! });
//! ```

use std::fmt::Debug;
use std::rc::Rc;

use crate::rng::{splitmix64, DetRng};

// ---------------------------------------------------------------------
// Cases: a value plus its lazily-computed simplifications.
// ---------------------------------------------------------------------

/// A generated value together with a lazy list of simpler candidates.
///
/// Shrinking is greedy: when a property fails, the runner walks to the
/// first child that also fails and recurses, ending at a local minimum.
#[derive(Clone)]
pub struct Case<T> {
    /// The generated value.
    pub value: T,
    shrinks: Rc<dyn Fn() -> Vec<Case<T>>>,
}

/// A shared mapping function, as taken by [`Case::map`].
pub type MapFn<T, U> = Rc<dyn Fn(&T) -> U>;

impl<T: Debug> Debug for Case<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Case").field("value", &self.value).finish()
    }
}

impl<T: Clone + 'static> Case<T> {
    /// A case with no simplifications.
    pub fn leaf(value: T) -> Case<T> {
        Case {
            value,
            shrinks: Rc::new(Vec::new),
        }
    }

    /// A case whose simplifications are computed on demand.
    pub fn with_shrinks(value: T, shrinks: impl Fn() -> Vec<Case<T>> + 'static) -> Case<T> {
        Case {
            value,
            shrinks: Rc::new(shrinks),
        }
    }

    /// The candidate simplifications, simplest first.
    pub fn shrink(&self) -> Vec<Case<T>> {
        (self.shrinks)()
    }

    /// Maps the value (and, lazily, every simplification) through `f`.
    pub fn map<U: Clone + 'static>(&self, f: MapFn<T, U>) -> Case<U> {
        let value = f(&self.value);
        let inner = self.clone();
        Case {
            value,
            shrinks: Rc::new(move || {
                let f = f.clone();
                inner
                    .shrink()
                    .into_iter()
                    .map(|c| c.map(f.clone()))
                    .collect()
            }),
        }
    }
}

// ---------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------

/// A deterministic generator of shrinkable test cases.
pub trait Gen {
    /// The type of value generated.
    type Value: Clone + Debug + 'static;

    /// Produces one case from the given RNG.
    fn generate(&self, rng: &mut DetRng) -> Case<Self::Value>;
}

impl<G: Gen + ?Sized> Gen for &G {
    type Value = G::Value;
    fn generate(&self, rng: &mut DetRng) -> Case<Self::Value> {
        (**self).generate(rng)
    }
}

/// Shrink candidates for an integer: move toward `origin` by halving.
fn int_shrink_candidates(v: i64, origin: i64) -> Vec<i64> {
    let mut out = Vec::new();
    if v == origin {
        return out;
    }
    out.push(origin);
    let mut delta = v - origin;
    loop {
        delta /= 2;
        if delta == 0 {
            break;
        }
        let c = origin + delta;
        if c != v && !out.contains(&c) {
            out.push(c);
        }
    }
    // One-step move is often the final polish.
    let step = if v > origin { v - 1 } else { v + 1 };
    if !out.contains(&step) {
        out.push(step);
    }
    out
}

fn int_case(v: i64, origin: i64) -> Case<i64> {
    Case::with_shrinks(v, move || {
        int_shrink_candidates(v, origin)
            .into_iter()
            .map(|c| int_case(c, origin))
            .collect()
    })
}

/// Uniform `i64` in `[lo, hi)`, shrinking toward the in-range point
/// nearest zero.
#[derive(Debug, Clone, Copy)]
pub struct IntRange {
    lo: i64,
    hi: i64,
}

/// Uniform integers in `[lo, hi)`.
///
/// # Panics
///
/// Panics if the range is empty.
pub fn int_range(lo: i64, hi: i64) -> IntRange {
    assert!(lo < hi, "empty range");
    IntRange { lo, hi }
}

impl Gen for IntRange {
    type Value = i64;
    fn generate(&self, rng: &mut DetRng) -> Case<i64> {
        let span = (self.hi - self.lo) as u64;
        let v = self.lo + rng.below(span) as i64;
        let origin = self.lo.max(0).min(self.hi - 1);
        int_case(v, origin)
    }
}

/// Uniform `u64` in `[lo, hi)`, shrinking toward `lo`.
#[derive(Debug, Clone, Copy)]
pub struct U64Range {
    lo: u64,
    hi: u64,
}

/// Uniform `u64` in `[lo, hi)`.
///
/// # Panics
///
/// Panics if the range is empty.
pub fn u64_range(lo: u64, hi: u64) -> U64Range {
    assert!(lo < hi, "empty range");
    U64Range { lo, hi }
}

impl Gen for U64Range {
    type Value = u64;
    fn generate(&self, rng: &mut DetRng) -> Case<u64> {
        fn case(v: u64, lo: u64) -> Case<u64> {
            Case::with_shrinks(v, move || {
                let mut out = Vec::new();
                if v == lo {
                    return out;
                }
                out.push(case(lo, lo));
                let mut delta = v - lo;
                loop {
                    delta /= 2;
                    if delta == 0 {
                        break;
                    }
                    let c = lo + delta;
                    if c != v {
                        out.push(case(c, lo));
                    }
                }
                out
            })
        }
        case(rng.range(self.lo, self.hi), self.lo)
    }
}

/// Arbitrary bytes, shrinking toward zero.
#[derive(Debug, Clone, Copy)]
pub struct Bytes;

/// Uniform `u8` values, shrinking toward 0.
pub fn byte() -> Bytes {
    Bytes
}

impl Gen for Bytes {
    type Value = u8;
    fn generate(&self, rng: &mut DetRng) -> Case<u8> {
        int_case(rng.below(256) as i64, 0).map(Rc::new(|v: &i64| *v as u8))
    }
}

/// `bool`, shrinking `true` → `false`.
#[derive(Debug, Clone, Copy)]
pub struct Bool;

/// Uniform booleans.
pub fn boolean() -> Bool {
    Bool
}

impl Gen for Bool {
    type Value = bool;
    fn generate(&self, rng: &mut DetRng) -> Case<bool> {
        if rng.below(2) == 1 {
            Case::with_shrinks(true, || vec![Case::leaf(false)])
        } else {
            Case::leaf(false)
        }
    }
}

/// One of a fixed set of values, shrinking toward earlier entries.
#[derive(Debug, Clone)]
pub struct Choice<T> {
    options: Rc<Vec<T>>,
}

/// Picks uniformly from `options`; shrinks toward the first option.
///
/// # Panics
///
/// Panics if `options` is empty.
pub fn choice<T: Clone + Debug + 'static>(options: Vec<T>) -> Choice<T> {
    assert!(!options.is_empty(), "choice needs at least one option");
    Choice {
        options: Rc::new(options),
    }
}

impl<T: Clone + Debug + 'static> Gen for Choice<T> {
    type Value = T;
    fn generate(&self, rng: &mut DetRng) -> Case<T> {
        fn case<T: Clone + Debug + 'static>(options: Rc<Vec<T>>, idx: usize) -> Case<T> {
            Case::with_shrinks(options[idx].clone(), move || {
                // Earlier options are by convention simpler.
                (0..idx).map(|i| case(options.clone(), i)).collect()
            })
        }
        let idx = rng.below(self.options.len() as u64) as usize;
        case(self.options.clone(), idx)
    }
}

/// Vectors of generated elements, shrinking by dropping chunks and
/// shrinking elements.
#[derive(Debug, Clone)]
pub struct Vecs<G> {
    elem: G,
    max_len: usize,
}

/// Vectors of 0..=`max_len` elements from `elem`.
pub fn vecs<G: Gen>(elem: G, max_len: usize) -> Vecs<G> {
    Vecs { elem, max_len }
}

/// Builds a vector case from element cases (public so custom generators
/// can reuse list shrinking: drop chunks, then shrink elements in place).
pub fn vec_of_cases<T: Clone + Debug + 'static>(elems: Vec<Case<T>>) -> Case<Vec<T>> {
    vec_case(Rc::new(elems))
}

fn vec_case<T: Clone + Debug + 'static>(elems: Rc<Vec<Case<T>>>) -> Case<Vec<T>> {
    let value: Vec<T> = elems.iter().map(|c| c.value.clone()).collect();
    Case::with_shrinks(value, move || {
        let mut out: Vec<Case<Vec<T>>> = Vec::new();
        let n = elems.len();
        if n > 0 {
            // Empty first — the simplest possible list.
            out.push(vec_case(Rc::new(Vec::new())));
            // Drop progressively smaller chunks.
            let mut chunk = n;
            while chunk > 0 {
                let mut start = 0;
                while start < n {
                    let end = (start + chunk).min(n);
                    if (start, end) != (0, n) {
                        let mut kept: Vec<Case<T>> = Vec::with_capacity(n - (end - start));
                        kept.extend_from_slice(&elems[..start]);
                        kept.extend_from_slice(&elems[end..]);
                        out.push(vec_case(Rc::new(kept)));
                    }
                    start += chunk;
                }
                chunk /= 2;
            }
            // Shrink each element in place.
            for (i, c) in elems.iter().enumerate() {
                for s in c.shrink() {
                    let mut next = (*elems).clone();
                    next[i] = s;
                    out.push(vec_case(Rc::new(next)));
                }
            }
        }
        out
    })
}

impl<G: Gen> Gen for Vecs<G> {
    type Value = Vec<G::Value>;
    fn generate(&self, rng: &mut DetRng) -> Case<Vec<G::Value>> {
        let len = rng.below(self.max_len as u64 + 1) as usize;
        let elems: Vec<Case<G::Value>> = (0..len).map(|_| self.elem.generate(rng)).collect();
        vec_case(Rc::new(elems))
    }
}

/// Pairs two cases; shrinking tries each side independently.
///
/// The building block for product types: generate the parts, zip them,
/// then [`Case::map`] the pair into the structure.
pub fn zip_cases<A: Clone + 'static, B: Clone + 'static>(a: Case<A>, b: Case<B>) -> Case<(A, B)> {
    let value = (a.value.clone(), b.value.clone());
    Case::with_shrinks(value, move || {
        let mut out = Vec::new();
        for sa in a.shrink() {
            out.push(zip_cases(sa, b.clone()));
        }
        for sb in b.shrink() {
            out.push(zip_cases(a.clone(), sb));
        }
        out
    })
}

/// Pairs two generators (see [`zip_cases`]).
#[derive(Debug, Clone)]
pub struct Zip<A, B> {
    a: A,
    b: B,
}

/// Generates `(A, B)` pairs.
pub fn zip<A: Gen, B: Gen>(a: A, b: B) -> Zip<A, B> {
    Zip { a, b }
}

impl<A: Gen, B: Gen> Gen for Zip<A, B> {
    type Value = (A::Value, B::Value);
    fn generate(&self, rng: &mut DetRng) -> Case<Self::Value> {
        let a = self.a.generate(rng);
        let b = self.b.generate(rng);
        zip_cases(a, b)
    }
}

/// A generator mapped through a function (see [`map`]).
pub struct Mapped<G: Gen, U> {
    inner: G,
    f: MapFn<G::Value, U>,
}

impl<G: Gen + Debug, U> Debug for Mapped<G, U> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mapped")
            .field("inner", &self.inner)
            .finish()
    }
}

/// Applies `f` to every generated value; shrinks of the underlying value
/// are mapped through `f` as well.
pub fn map<G: Gen, U: Clone + Debug + 'static>(
    inner: G,
    f: impl Fn(&G::Value) -> U + 'static,
) -> Mapped<G, U> {
    Mapped {
        inner,
        f: Rc::new(f),
    }
}

impl<G: Gen, U: Clone + Debug + 'static> Gen for Mapped<G, U> {
    type Value = U;
    fn generate(&self, rng: &mut DetRng) -> Case<U> {
        self.inner.generate(rng).map(self.f.clone())
    }
}

/// Strings built from a fixed alphabet, shrinking like vectors.
///
/// `string_of("ab", 10)` generates strings of up to ten `a`/`b` chars.
pub fn string_of(alphabet: &str, max_len: usize) -> Mapped<Vecs<Choice<char>>, String> {
    map(
        vecs(choice(alphabet.chars().collect()), max_len),
        |cs: &Vec<char>| cs.iter().collect::<String>(),
    )
}

/// Printable-ASCII strings (space through `~`), shrinking like vectors.
pub fn ascii_string(max_len: usize) -> Mapped<Vecs<Choice<char>>, String> {
    let alphabet: String = (b' '..=b'~').map(char::from).collect();
    string_of(&alphabet, max_len)
}

// ---------------------------------------------------------------------
// The runner.
// ---------------------------------------------------------------------

/// Environment variable that replays one specific case of a property.
pub const SEED_ENV: &str = "PILGRIM_CHECK_SEED";

/// How a property run failed.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Name of the property.
    pub property: String,
    /// The per-case seed that reproduces the failure.
    pub seed: u64,
    /// Debug rendering of the original (unshrunk) counterexample.
    pub original: String,
    /// Debug rendering of the shrunk counterexample.
    pub shrunk: String,
    /// The property's error for the shrunk counterexample.
    pub message: String,
    /// How many shrinking steps were accepted.
    pub shrink_steps: u32,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "property `{}` failed: {}\n  counterexample: {}\n  (original: {}, {} shrink steps)\n  replay with {}={}",
            self.property, self.message, self.shrunk, self.original, self.shrink_steps, SEED_ENV, self.seed
        )
    }
}

/// Stable 64-bit FNV-1a hash of the property name, used as the base seed.
fn name_seed(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Derives the seed of case `i` of a property.
fn case_seed(base: u64, i: u32) -> u64 {
    let mut s = base ^ (u64::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    splitmix64(&mut s)
}

const MAX_SHRINK_STEPS: u32 = 1_000;

/// Runs `prop` on one seeded case and greedily shrinks any failure.
fn run_one<G: Gen>(
    name: &str,
    gen: &G,
    prop: &impl Fn(&G::Value) -> Result<(), String>,
    seed: u64,
) -> Result<(), Failure> {
    let mut rng = DetRng::seed(seed);
    let case = gen.generate(&mut rng);
    let mut message = match prop(&case.value) {
        Ok(()) => return Ok(()),
        Err(m) => m,
    };
    let original = format!("{:?}", case.value);
    let mut current = case;
    let mut steps = 0u32;
    'shrinking: while steps < MAX_SHRINK_STEPS {
        for child in current.shrink() {
            if let Err(m) = prop(&child.value) {
                current = child;
                message = m;
                steps += 1;
                continue 'shrinking;
            }
        }
        break; // local minimum: every child passes
    }
    Err(Failure {
        property: name.to_string(),
        seed,
        original,
        shrunk: format!("{:?}", current.value),
        message,
        shrink_steps: steps,
    })
}

/// Runs `cases` seeded cases of `prop`, returning the first failure.
///
/// Honours [`SEED_ENV`]: when set, only that one case is run (replay mode).
pub fn check_cases<G: Gen>(
    name: &str,
    cases: u32,
    gen: &G,
    prop: impl Fn(&G::Value) -> Result<(), String>,
) -> Result<(), Failure> {
    if let Ok(replay) = std::env::var(SEED_ENV) {
        let seed: u64 = replay
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{SEED_ENV} must be a u64, got `{replay}`"));
        return run_one(name, gen, &prop, seed);
    }
    let base = name_seed(name);
    for i in 0..cases {
        run_one(name, gen, &prop, case_seed(base, i))?;
    }
    Ok(())
}

/// Default number of cases per property.
pub const DEFAULT_CASES: u32 = 100;

/// Runs [`DEFAULT_CASES`] cases of `prop`, panicking with a replayable
/// seed on failure. This is the main entry point for test code.
pub fn check<G: Gen>(name: &str, gen: &G, prop: impl Fn(&G::Value) -> Result<(), String>) {
    check_n(name, DEFAULT_CASES, gen, prop)
}

/// Like [`check`] with an explicit case count.
pub fn check_n<G: Gen>(
    name: &str,
    cases: u32,
    gen: &G,
    prop: impl Fn(&G::Value) -> Result<(), String>,
) {
    if let Err(failure) = check_cases(name, cases, gen, prop) {
        panic!("{failure}");
    }
}

/// Converts a predicate into a property result.
pub fn ensure(ok: bool, msg: impl Into<String>) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg.into())
    }
}

/// Asserts equality as a property result.
pub fn ensure_eq<A: PartialEq<B> + Debug, B: Debug>(a: A, b: B) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{a:?} != {b:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_passes() {
        check("ints_in_range", &int_range(-50, 50), |v| {
            ensure((-50..50).contains(v), format!("{v} out of range"))
        });
    }

    #[test]
    fn vec_lengths_respect_max() {
        check("vec_max_len", &vecs(byte(), 16), |xs| {
            ensure(xs.len() <= 16, format!("len {}", xs.len()))
        });
    }

    #[test]
    fn failing_property_reports_replayable_seed_and_shrinks() {
        // Intentionally failing: claims every int is < 100. The minimal
        // counterexample is exactly 100.
        let gen = int_range(0, 10_000);
        let failure = check_cases("ints_below_100", DEFAULT_CASES, &gen, |v| {
            ensure(*v < 100, format!("{v} >= 100"))
        })
        .expect_err("property must fail");

        assert_eq!(failure.shrunk, "100", "greedy shrink must reach 100");
        assert!(failure.to_string().contains(SEED_ENV));

        // The reported seed replays the same original counterexample.
        let replay = run_one(
            "ints_below_100",
            &gen,
            &|v: &i64| ensure(*v < 100, "too big".to_string()),
            failure.seed,
        )
        .expect_err("replay must fail too");
        assert_eq!(replay.original, failure.original);
        assert_eq!(replay.shrunk, "100");
    }

    #[test]
    fn vectors_shrink_to_minimal_witness() {
        // Fails whenever the vec contains an element >= 50; minimal
        // counterexample is the single-element vec [50].
        let failure = check_cases(
            "no_big_elements",
            DEFAULT_CASES,
            &vecs(int_range(0, 1_000), 32),
            |xs| ensure(xs.iter().all(|v| *v < 50), "big element".to_string()),
        )
        .expect_err("property must fail");
        assert_eq!(failure.shrunk, "[50]");
    }

    #[test]
    fn map_shrinks_through_the_function() {
        // Doubling generator: minimal failing value for "< 30" is 30,
        // i.e. underlying 15 mapped through *2.
        let gen = map(int_range(0, 1_000), |v: &i64| v * 2);
        let failure = check_cases("doubled_below_30", DEFAULT_CASES, &gen, |v| {
            ensure(*v < 30, "too big".to_string())
        })
        .expect_err("property must fail");
        assert_eq!(failure.shrunk, "30");
    }

    #[test]
    fn choice_shrinks_toward_first_option() {
        let failure = check_cases(
            "never_c",
            DEFAULT_CASES,
            &vecs(choice(vec!["a", "b", "c"]), 8),
            |xs| ensure(!xs.contains(&"c"), "saw c".to_string()),
        )
        .expect_err("property must fail");
        assert_eq!(failure.shrunk, "[\"c\"]");
    }

    #[test]
    fn strings_generate_and_shrink() {
        check("ascii_strings_are_ascii", &ascii_string(40), |s| {
            ensure(s.is_ascii(), "non-ascii".to_string())
        });
        let failure = check_cases(
            "no_spaces",
            DEFAULT_CASES,
            &string_of("ab ", 20),
            |s: &String| ensure(!s.contains(' '), "space".to_string()),
        )
        .expect_err("property must fail");
        assert_eq!(failure.shrunk, "\" \"");
    }

    #[test]
    fn cases_are_deterministic_across_runs() {
        let collect = || {
            let mut out = Vec::new();
            let base = name_seed("det");
            for i in 0..20 {
                let mut rng = DetRng::seed(case_seed(base, i));
                out.push(vecs(int_range(0, 1_000), 8).generate(&mut rng).value);
            }
            out
        };
        assert_eq!(collect(), collect());
    }
}
