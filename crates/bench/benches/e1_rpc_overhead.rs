//! E1 — RPC debugging-support overhead (§4.3).
//!
//! Paper: "The effect of these changes to the RPC mechanism is to increase
//! the time for an RPC by 400 µs. For a null RPC ... this represents a
//! slow-down by 2.5 %. On more typical RPCs the slow-down is much less."
//!
//! The harness measures mean client-observed RPC latency with the §4.3
//! instrumentation (information blocks, call tables, ten-slot cyclic
//! buffer) compiled in vs out, for a null RPC and increasingly large
//! payloads.

use pilgrim::{RpcConfig, SimDuration, SimTime, Value, World};
use pilgrim_bench::{fmt_us, verdict, Table};

const PROGRAM: &str = "\
ping = proc ()
end
echo = proc (s: string) returns (string)
 return (s)
end
sum = proc (xs: array[int]) returns (int)
 t: int := 0
 n: int := len(xs)
 for i: int := 0 to n - 1 do
  t := t + xs[i]
 end
 return (t)
end
run_null = proc (n: int)
 for i: int := 1 to n do
  call ping() at 1
 end
end
run_echo = proc (n: int, payload: string)
 for i: int := 1 to n do
  r: string := call echo(payload) at 1
 end
end
run_sum = proc (n: int, xs: array[int])
 for i: int := 1 to n do
  r: int := call sum(xs) at 1
 end
end";

const CALLS: i64 = 25;

fn measure(debug_support: bool, entry: &str, args: Vec<Value>) -> u64 {
    let mut w = World::builder()
        .nodes(2)
        .program(PROGRAM)
        .rpc(RpcConfig {
            debug_support,
            ..Default::default()
        })
        .debugger(false)
        .build()
        .expect("world builds");
    w.spawn(0, entry, args);
    w.run_until_idle(SimTime::from_secs(120));
    let stats = w.endpoint(0).stats();
    assert_eq!(stats.completed, CALLS as u64, "all calls must complete");
    stats.mean_latency().as_micros()
}

fn int_array(w: &mut World, n: i64) -> Value {
    use pilgrim_cclu::{HeapObject, Value as V};
    let items: Vec<V> = (0..n).map(V::Int).collect();
    V::Ref(w.unrecorded_node(0, |n| n.heap_mut().alloc(HeapObject::Array(items))))
}

fn main() {
    let mut table = Table::new(
        "E1: RPC debug-support overhead (§4.3)",
        "+400us per call; 2.5% on a null RPC; much less on typical RPCs",
    )
    .headers([
        "workload",
        "no support",
        "with support",
        "overhead",
        "slowdown",
        "paper",
        "verdict",
    ]);

    type MakeArgs = Box<dyn Fn(&mut World) -> Vec<Value>>;
    let cases: Vec<(&str, &str, MakeArgs)> = vec![
        (
            "null RPC",
            "run_null",
            Box::new(|_| vec![Value::Int(CALLS)]),
        ),
        (
            "64-byte string",
            "run_echo",
            Box::new(|_| vec![Value::Int(CALLS), Value::Str("x".repeat(64).into())]),
        ),
        (
            "512-byte string",
            "run_echo",
            Box::new(|_| vec![Value::Int(CALLS), Value::Str("y".repeat(512).into())]),
        ),
        (
            "array of 200 ints",
            "run_sum",
            Box::new(|w| vec![Value::Int(CALLS), int_array(w, 200)]),
        ),
    ];

    let mut null_pct = 0.0;
    for (i, (name, entry, mkargs)) in cases.iter().enumerate() {
        // Build twice so arg construction can use each world's heap.
        let base = {
            let mut w = World::builder()
                .nodes(2)
                .program(PROGRAM)
                .rpc(RpcConfig {
                    debug_support: false,
                    ..Default::default()
                })
                .debugger(false)
                .build()
                .unwrap();
            let args = mkargs(&mut w);
            w.spawn(0, entry, args);
            w.run_until_idle(SimTime::from_secs(120));
            w.endpoint(0).stats().mean_latency().as_micros()
        };
        let with = {
            let mut w = World::builder()
                .nodes(2)
                .program(PROGRAM)
                .rpc(RpcConfig {
                    debug_support: true,
                    ..Default::default()
                })
                .debugger(false)
                .build()
                .unwrap();
            let args = mkargs(&mut w);
            w.spawn(0, entry, args);
            w.run_until_idle(SimTime::from_secs(120));
            w.endpoint(0).stats().mean_latency().as_micros()
        };
        let overhead = with.saturating_sub(base);
        let pct = overhead as f64 / base as f64 * 100.0;
        if i == 0 {
            null_pct = pct;
        }
        let (expect, ok) = if i == 0 {
            ("400us / 2.5%", overhead == 400 && (2.0..3.0).contains(&pct))
        } else {
            ("much less", overhead == 400 && pct < null_pct)
        };
        table.row([
            name.to_string(),
            fmt_us(base),
            fmt_us(with),
            fmt_us(overhead),
            format!("{pct:.2}%"),
            expect.to_string(),
            verdict(ok).to_string(),
        ]);
    }
    table.print();

    // Keep the simple single-case API exercised too.
    let sanity = measure(true, "run_null", vec![Value::Int(CALLS)]);
    assert!(
        sanity > 15_000,
        "null RPC latency should be ~16 ms, got {}",
        fmt_us(sanity)
    );
    let _ = SimDuration::from_micros(sanity);
    println!("\nE1 complete.");
}
