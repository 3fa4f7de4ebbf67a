//! Property-based tests over the whole stack: compiler robustness,
//! arithmetic fidelity against a Rust reference, marshalling through real
//! RPC, determinism, and time-consistency invariants. Driven by the
//! in-repo `pilgrim_sim::check` harness; a failure prints a
//! `PILGRIM_CHECK_SEED` that replays it exactly.

use pilgrim::{SimTime, Value, World};
use pilgrim_sim::check::{
    check_n, choice, ensure, ensure_eq, int_range, map, string_of, u64_range, vecs, zip_cases,
    Case, Gen,
};
use pilgrim_sim::DetRng;
use std::rc::Rc;

// ---------------------------------------------------------------------
// Compiler robustness: arbitrary input must never panic.
// ---------------------------------------------------------------------

#[test]
fn compiler_never_panics_on_arbitrary_text() {
    // Printable ASCII plus a spread of multi-byte characters, standing in
    // for the old `\PC{0,200}` (any printable char) strategy.
    let mut alphabet: String = (b' '..=b'~').map(char::from).collect();
    alphabet.push_str("äßπ€中日🦀\u{2028}");
    check_n(
        "compiler_never_panics_on_arbitrary_text",
        256,
        &string_of(&alphabet, 200),
        |src| {
            let _ = pilgrim::compile(src);
            Ok(())
        },
    );
}

#[test]
fn compiler_never_panics_on_keyword_soup() {
    let words = vec![
        "proc",
        "end",
        "if",
        "then",
        "else",
        "while",
        "do",
        "return",
        "fork",
        "call",
        "at",
        "maybecall",
        "int",
        "bool",
        "string",
        "sem",
        "record",
        "array",
        "own",
        "extern",
        ":=",
        "(",
        ")",
        "[",
        "]",
        "x",
        "main",
        "=",
        "+",
        "$",
        "{",
        "}",
        "\n",
        "1",
        "\"s\"",
        ",",
        ":",
    ];
    check_n(
        "compiler_never_panics_on_keyword_soup",
        256,
        &map(vecs(choice(words), 60), |ws: &Vec<&str>| ws.join(" ")),
        |src| {
            let _ = pilgrim::compile(src);
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Arithmetic fidelity: CCLU expressions agree with a Rust reference.
// ---------------------------------------------------------------------

/// A tiny expression AST we can both render to CCLU and evaluate in Rust.
#[derive(Debug, Clone)]
enum E {
    N(i64),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Div(Box<E>, Box<E>),
    Mod(Box<E>, Box<E>),
    Neg(Box<E>),
}

impl E {
    fn render(&self) -> String {
        match self {
            E::N(v) => {
                if *v < 0 {
                    format!("(0 - {})", -v)
                } else {
                    v.to_string()
                }
            }
            E::Add(a, b) => format!("({} + {})", a.render(), b.render()),
            E::Sub(a, b) => format!("({} - {})", a.render(), b.render()),
            E::Mul(a, b) => format!("({} * {})", a.render(), b.render()),
            E::Div(a, b) => format!("({} / {})", a.render(), b.render()),
            E::Mod(a, b) => format!("({} // {})", a.render(), b.render()),
            E::Neg(a) => format!("(-{})", a.render()),
        }
    }

    /// Rust-reference evaluation with the VM's semantics (wrapping ops,
    /// `None` = division by zero fault).
    fn eval(&self) -> Option<i64> {
        Some(match self {
            E::N(v) => *v,
            E::Add(a, b) => a.eval()?.wrapping_add(b.eval()?),
            E::Sub(a, b) => a.eval()?.wrapping_sub(b.eval()?),
            E::Mul(a, b) => a.eval()?.wrapping_mul(b.eval()?),
            E::Div(a, b) => {
                let (x, y) = (a.eval()?, b.eval()?);
                if y == 0 {
                    return None;
                }
                x.wrapping_div(y)
            }
            E::Mod(a, b) => {
                let (x, y) = (a.eval()?, b.eval()?);
                if y == 0 {
                    return None;
                }
                x.wrapping_rem(y)
            }
            E::Neg(a) => a.eval()?.wrapping_neg(),
        })
    }
}

/// Adds extra shrink candidates in front of a case's own.
fn with_extra_shrinks<T: Clone + 'static>(case: Case<T>, extra: Vec<Case<T>>) -> Case<T> {
    let value = case.value.clone();
    Case::with_shrinks(value, move || {
        extra.iter().cloned().chain(case.shrink()).collect()
    })
}

/// Random arithmetic expressions up to depth 4, shrinking a composite to
/// either operand (then its leaves toward zero) — a structural port of
/// the old `prop_recursive` strategy.
#[derive(Debug, Clone, Copy)]
struct ExprGen;

fn expr_case(rng: &mut DetRng, depth: u32) -> Case<E> {
    let leafy = depth == 0 || rng.chance(0.3);
    if leafy {
        return int_range(-1000, 1000)
            .generate(rng)
            .map(Rc::new(|v: &i64| E::N(*v)));
    }
    if rng.below(7) == 6 {
        let a = expr_case(rng, depth - 1);
        let mapped = a.map(Rc::new(|a: &E| E::Neg(Box::new(a.clone()))));
        return with_extra_shrinks(mapped, vec![a]);
    }
    let a = expr_case(rng, depth - 1);
    let b = expr_case(rng, depth - 1);
    let op = rng.below(5);
    let build = move |(a, b): &(E, E)| -> E {
        let (a, b) = (Box::new(a.clone()), Box::new(b.clone()));
        match op {
            0 => E::Add(a, b),
            1 => E::Sub(a, b),
            2 => E::Mul(a, b),
            3 => E::Div(a, b),
            _ => E::Mod(a, b),
        }
    };
    let mapped = zip_cases(a.clone(), b.clone()).map(Rc::new(build));
    with_extra_shrinks(mapped, vec![a, b])
}

impl Gen for ExprGen {
    type Value = E;
    fn generate(&self, rng: &mut DetRng) -> Case<E> {
        expr_case(rng, 4)
    }
}

#[test]
fn vm_arithmetic_matches_rust_reference() {
    check_n("vm_arithmetic_matches_rust_reference", 48, &ExprGen, |e| {
        let src = format!("main = proc ()\n print({})\nend", e.render());
        let mut w = World::builder()
            .nodes(1)
            .program(&src)
            .debugger(false)
            .build()
            .map_err(|err| format!("generated program rejected: {err}"))?;
        w.spawn(0, "main", vec![]);
        w.run_until_idle(SimTime::from_secs(60));
        match e.eval() {
            Some(v) => ensure_eq(w.console(0), vec![v.to_string()]),
            None => ensure(
                w.console(0).is_empty(),
                "division by zero must fault".to_string(),
            ),
        }
    });
}

// ---------------------------------------------------------------------
// Marshalling through a real RPC round trip.
// ---------------------------------------------------------------------

#[test]
fn strings_round_trip_through_rpc() {
    let alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _.,!?-";
    check_n(
        "strings_round_trip_through_rpc",
        24,
        &string_of(alphabet, 300),
        |s| {
            let src = "\
echo = proc (s: string) returns (string)
 return (s)
end
main = proc (payload: string)
 r: string := call echo(payload) at 1
 if r = payload then
  print(\"match\")
 else
  print(\"MISMATCH\")
 end
end";
            let mut w = World::builder()
                .nodes(2)
                .program(src)
                .debugger(false)
                .build()
                .unwrap();
            w.spawn(0, "main", vec![Value::Str(s.as_str().into())]);
            w.run_until_idle(SimTime::from_secs(60));
            ensure_eq(w.console(0), vec!["match".to_string()])
        },
    );
}

#[test]
fn int_arrays_round_trip_through_rpc() {
    check_n(
        "int_arrays_round_trip_through_rpc",
        24,
        &vecs(int_range(-10_000, 10_000), 50),
        |xs| {
            let src = "\
total = proc (xs: array[int]) returns (int, int)
 t: int := 0
 n: int := len(xs)
 for i: int := 0 to n - 1 do
  t := t + xs[i]
 end
 return (t, n)
end
main = proc (xs: array[int])
 t: int := 0
 n: int := 0
 t, n := call total(xs) at 1
 print(t)
 print(n)
end";
            let mut w = World::builder()
                .nodes(2)
                .program(src)
                .debugger(false)
                .build()
                .unwrap();
            let arr = {
                use pilgrim_cclu::{HeapObject, Value as V};
                let items: Vec<V> = xs.iter().map(|v| V::Int(*v)).collect();
                V::Ref(w.unrecorded_node(0, |n| n.heap_mut().alloc(HeapObject::Array(items))))
            };
            w.spawn(0, "main", vec![arr]);
            w.run_until_idle(SimTime::from_secs(60));
            let sum: i64 = xs.iter().sum();
            ensure_eq(w.console(0), vec![sum.to_string(), xs.len().to_string()])
        },
    );
}

// ---------------------------------------------------------------------
// Span sampling: a sampled trace is a strict causal subset.
// ---------------------------------------------------------------------

#[test]
fn sampled_causal_graph_is_a_strict_subset_of_the_full_trace() {
    // Twin worlds differing only in the head-based sample rate must
    // agree on everything the sampled run keeps: every surviving span
    // exists in the full run with a byte-identical profile, parents
    // survive with their children (causal completeness), and sampling
    // actually thins the trace (strictness).
    const MAIN: &str = "\
ping = proc (x: int) returns (int)
 fail(\"servers implement ping\")
end
relay = proc (x: int) returns (int)
 fail(\"node 2 implements relay\")
end
main = proc (rounds: int)
 total: int := 0
 for i: int := 1 to rounds do
  total := total + call ping(i) at 1
  total := total + call relay(i) at 2
 end
 print(int$unparse(total))
end";
    const SERVER: &str = "\
ping = proc (x: int) returns (int)
 return (x * 2)
end";
    const RELAY: &str = "\
ping = proc (x: int) returns (int)
 fail(\"node 1 implements ping\")
end
relay = proc (x: int) returns (int)
 r: int := call ping(x) at 1
 return (r + 1)
end";
    check_n(
        "sampled_causal_graph_is_a_strict_subset_of_the_full_trace",
        8,
        &u64_range(0, 10_000),
        |seed| {
            let rate = 2 + (*seed % 2) as u32;
            let run = |sample: u32| {
                let mut w = World::builder()
                    .nodes(3)
                    .program(MAIN)
                    .program_for(1, SERVER)
                    .program_for(2, RELAY)
                    .network(pilgrim::NetworkConfig {
                        p_silent_loss: 0.05,
                        seed: *seed,
                        ..Default::default()
                    })
                    .seed(*seed)
                    .debugger(false)
                    .trace_sample(sample)
                    .build()
                    .unwrap();
                w.spawn(0, "main", vec![Value::Int(16)]);
                w.run_until_idle(SimTime::from_secs(300));
                (pilgrim::CausalGraph::from_events(&w.tracer().events()), w)
            };
            let (full, full_world) = run(0);
            let (sampled, sampled_world) = run(rate);
            ensure_eq(full_world.console(0), sampled_world.console(0))?;

            use std::collections::HashMap;
            let by_id: HashMap<u64, &pilgrim::SpanProfile> =
                full.spans().iter().map(|p| (p.span, p)).collect();
            let kept: Vec<u64> = sampled.spans().iter().map(|p| p.span).collect();
            ensure(
                !kept.is_empty() && kept.len() < full.spans().len(),
                format!(
                    "rate {rate} must thin the trace: kept {} of {} spans",
                    kept.len(),
                    full.spans().len()
                ),
            )?;
            for p in sampled.spans() {
                let twin = by_id.get(&p.span).ok_or(format!(
                    "span {} survived sampling but never ran in the full world",
                    p.span
                ))?;
                ensure_eq(p.render(), twin.render())?;
                ensure(
                    p.parent == 0 || kept.contains(&p.parent),
                    format!("span {} kept without its parent {}", p.span, p.parent),
                )?;
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Determinism and time consistency.
// ---------------------------------------------------------------------

#[test]
fn worlds_are_deterministic_under_loss() {
    check_n(
        "worlds_are_deterministic_under_loss",
        12,
        &u64_range(0, 1000),
        |seed| {
            let run = || {
                let mut w = World::builder()
                    .nodes(2)
                    .program(
                        "pong = proc (n: int) returns (int)\n return (n)\nend\n\
                         main = proc ()\n\
                         for i: int := 1 to 10 do\n\
                          ok: bool := true\n r: int := 0\n\
                          ok, r := maybecall pong(i) at 1\n\
                          if ok then\n print(r)\n else\n print(0 - i)\n end\n\
                         end\nend",
                    )
                    .network(pilgrim::NetworkConfig {
                        p_silent_loss: 0.3,
                        seed: *seed,
                        ..Default::default()
                    })
                    .debugger(false)
                    .build()
                    .unwrap();
                w.spawn(0, "main", vec![]);
                w.run_until_idle(SimTime::from_secs(120));
                (w.console(0), w.now())
            };
            ensure_eq(run(), run())
        },
    );
}

#[test]
fn logical_time_hides_halts_of_any_length() {
    check_n(
        "logical_time_hides_halts_of_any_length",
        12,
        &u64_range(100, 8000),
        |halt_ms| {
            let mut w = World::builder()
                .nodes(1)
                .program(
                    "main = proc ()\n\
                     a: int := now()\n\
                     sleep(300)\n\
                     b: int := now()\n\
                     print(int$unparse(b - a))\nend",
                )
                .build()
                .unwrap();
            w.debug_connect(&[0], false).unwrap();
            w.spawn(0, "main", vec![]);
            // Halt somewhere inside the sleep.
            w.run_for(pilgrim::SimDuration::from_millis(100));
            w.debug_halt_all(0).unwrap();
            w.run_for(pilgrim::SimDuration::from_millis(*halt_ms));
            w.debug_resume_all().unwrap();
            w.run_until_idle(w.now() + pilgrim::SimDuration::from_secs(30));
            let observed: i64 = w.console(0)[0].parse().unwrap();
            // The program must observe ~300 ms regardless of the halt length.
            ensure(
                (300..330).contains(&observed),
                format!("observed {observed}ms"),
            )
        },
    );
}
