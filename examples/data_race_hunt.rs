//! Hunting an unsafe shared-memory bug with Pilgrim (§5.1).
//!
//! "Interaction may occur through undisciplined or unsafe concurrent
//! access to data. It is important to consider this possibility since the
//! programs which the debugger must cope with probably contain bugs of
//! this kind."
//!
//! Two processes increment a shared `own` counter with an unprotected
//! read-modify-write. The program loses updates — but only under real
//! scheduling, so the bug appears in the target environment and the
//! programmer investigates it there: halt the node mid-run, inspect both
//! process stacks and the global, watch the interleaving, then verify the
//! fix (a monitor lock) in the same session.
//!
//! Run with: `cargo run --example data_race_hunt`

use pilgrim::{SimDuration, SimTime, World};

const BUGGY: &str = "\
own count: int := 0
own done: int := 0

worker = proc (rounds: int)
 for i: int := 1 to rounds do
  c: int := count        % read
  sleep(1)               % lose the time slice mid-update
  count := c + 1         % write back (stale!)
 end
 done := done + 1
end

main = proc ()
 fork worker(50)
 fork worker(50)
 while done < 2 do
  sleep(20)
 end
 print(\"count = \" || int$unparse(count))
end";

const FIXED: &str = "\
own count: int := 0
own done: int := 0
own lock_holder: int := 0

worker = proc (rounds: int, m: mutex)
 for i: int := 1 to rounds do
  mutex$lock(m)
  c: int := count
  sleep(1)
  count := c + 1
  mutex$unlock(m)
 end
 done := done + 1
end

main = proc ()
 m: mutex := mutex$create()
 fork worker(50, m)
 fork worker(50, m)
 while done < 2 do
  sleep(20)
 end
 print(\"count = \" || int$unparse(count))
end";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== the symptom: 100 increments, fewer than 100 counted ==");
    let mut world = World::builder().nodes(1).program(BUGGY).build()?;
    world.debug_connect(&[0], false)?;
    world.spawn(0, "main", vec![]);
    world.run_for(SimDuration::from_millis(40));

    // Halt the node mid-run and look around (§5.4: all process state
    // visible, including what each worker believes the counter to be).
    world.debug_halt_all(0)?;
    println!("\n-- halted mid-run; the supervisor's view (§5.4): --");
    let procs = world.debug_processes(0)?;
    for p in &procs {
        println!("  p{} {:<10} {:?}", p.pid, p.name, p.state);
    }
    let count_now = world.inspect(0, procs[0].pid, "count")?;
    println!("  shared `count` = {count_now}");
    // Each worker's private copy `c` — the smoking gun if they are equal.
    let workers: Vec<u64> = procs
        .iter()
        .filter(|p| &*p.name == "worker")
        .map(|p| p.pid)
        .collect();
    for w in &workers {
        if let Ok(c) = world.inspect(0, *w, "c") {
            println!("  worker p{w} holds stale c = {c}");
        }
    }
    world.debug_resume_all()?;
    world.run_until_idle(SimTime::from_secs(60));
    let buggy_out = world.console(0);
    println!("\nfinal output: {buggy_out:?}  (expected count = 100)");
    let buggy_count: i64 = buggy_out[0].trim_start_matches("count = ").parse()?;
    assert!(buggy_count < 100, "the race must lose updates");

    println!("\n== the fix: the same read-modify-write under a monitor lock ==");
    let mut world = World::builder().nodes(1).program(FIXED).build()?;
    world.spawn(0, "main", vec![]);
    world.run_until_idle(SimTime::from_secs(120));
    let fixed_out = world.console(0);
    println!("final output: {fixed_out:?}");
    assert_eq!(fixed_out, vec!["count = 100"]);

    println!("\nThe debugger halted *all* processes atomically (no partial");
    println!("interleavings while inspecting), read both workers' stale");
    println!("copies, and confirmed the fix — in the target environment,");
    println!("with no recompilation of the program under test (§1).");
    Ok(())
}
