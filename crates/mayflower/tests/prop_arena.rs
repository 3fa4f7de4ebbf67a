//! Property tests for the slot-addressed process arena.
//!
//! The scheduler stores processes in fixed-size chunks indexed by
//! `pid - 1` instead of a `HashMap<Pid, Process>`. These properties drive
//! a node through random operation sequences — bulk spawns among them, so
//! the table crosses several chunk seams — while maintaining a naive
//! `HashMap`-keyed mirror of the supervisor's observable per-process
//! state, and assert the arena never diverges from the mirror: pids are
//! allocated monotonically and never reused, records are retained forever
//! (dead processes stay queryable for post-mortem examination, with their
//! exit values), and `step_one`/`advance_to` leave both views observing
//! identical states.

use std::cell::Cell;
use std::collections::HashMap;

use pilgrim_cclu::{compile, Program, Value};
use pilgrim_mayflower::{Node, NodeConfig, Pid, Process, SpawnOpts};
use pilgrim_sim::check::{check_n, ensure, ensure_eq, int_range, vecs, zip};
use pilgrim_sim::{SimDuration, Tracer};

/// Records per chunk of the node's process table.
const CHUNK: usize = 256;

/// Processes one bulk-spawn op adds.
const BULK: usize = 200;

const PROGRAM: &str = "\
worker = proc (n: int) returns (int)
 t: int := 0
 for i: int := 1 to n do
  t := t + i
  sleep(1)
 end
 return (t)
end
forker = proc ()
 fork worker(2)
 fork worker(3)
end";

fn program() -> Program {
    compile(PROGRAM).expect("property program compiles")
}

fn fresh_node(program: &Program) -> Node {
    let mut node = Node::new(7, program.clone(), NodeConfig::default(), Tracer::new());
    // Start with one live process so pid-targeting ops always have a
    // target even for the empty op sequence.
    node.spawn("worker", vec![Value::Int(1)], SpawnOpts::default())
        .expect("worker exists");
    node
}

/// Picks an existing pid from `k` (pids are dense starting at 1).
fn pid_for(node: &Node, k: i64) -> Pid {
    let n = node.process_count() as u64;
    Pid(k as u64 % n + 1)
}

/// Applies one `(op, k)` pair to a node. Returns the (first) pid spawned
/// by the op, if it was a spawn.
fn apply(node: &mut Node, op: i64, k: i64) -> Option<Pid> {
    match op {
        0 => Some(
            node.spawn("worker", vec![Value::Int(k % 4 + 1)], SpawnOpts::default())
                .expect("worker exists"),
        ),
        1 => Some(
            node.spawn("forker", vec![], SpawnOpts::default())
                .expect("forker exists"),
        ),
        2 => {
            node.step_one(pid_for(node, k));
            None
        }
        3 => {
            let clock = node.clock();
            node.advance_to(clock + SimDuration::from_millis(2));
            None
        }
        4 => {
            node.halt_one(pid_for(node, k));
            None
        }
        5 => {
            node.resume_one(pid_for(node, k));
            None
        }
        _ => {
            // Each record named for itself, so a slot that aliased another
            // would show up as a name the mirror does not remember.
            let first = Pid(node.process_count() as u64 + 1);
            for i in 0..BULK as u64 {
                let opts = SpawnOpts {
                    name: Some(node.intern_name(&format!("bulk{}", first.0 + i))),
                    ..SpawnOpts::default()
                };
                node.spawn("worker", vec![Value::Int(k % 4 + 1)], opts)
                    .expect("worker exists");
            }
            Some(first)
        }
    }
}

/// The observable fields the mirror remembers across operations.
#[derive(Debug, Clone)]
struct Remembered {
    name: String,
    dead: bool,
    /// The exit values, once the process has exited.
    exit: Option<Vec<Value>>,
}

#[test]
fn arena_never_reuses_pids_and_retains_every_record() {
    let program = program();
    let ops = vecs(zip(int_range(0, 7), int_range(0, 64)), 40);
    let largest = Cell::new(0);
    check_n("arena_no_pid_reuse", 60, &ops, |seq| {
        let mut node = fresh_node(&program);
        let mut mirror: HashMap<u64, Remembered> = HashMap::new();
        let mut observed_max = 0u64;

        for (op, k) in seq {
            let spawned = apply(&mut node, *op, *k);

            // Explicit spawns must hand out a pid above every pid ever
            // observed — live or dead, a pid is never reused.
            if let Some(pid) = spawned {
                ensure(
                    pid.0 > observed_max,
                    format!("spawn returned reused pid {pid} (max seen {observed_max})"),
                )?;
            }

            // Pids stay dense and sequential in creation order; growth
            // (spawns and in-VM forks) only appends.
            let pids = node.pids();
            for (i, pid) in pids.iter().enumerate() {
                ensure_eq(pid.0, i as u64 + 1)?;
            }
            ensure(
                pids.len() as u64 >= observed_max,
                format!("process table shrank: {} < {observed_max}", pids.len()),
            )?;
            observed_max = pids.len() as u64;
            largest.set(largest.get().max(pids.len()));
            // The records, walked in slot order, are the pids in order.
            let walked: Vec<(Pid, &Process)> = node.processes().collect();
            let walked_pids: Vec<Pid> = walked.iter().map(|&(pid, _)| pid).collect();
            ensure_eq(&walked_pids, &pids)?;
            // The node's halt table holds exactly the halted records.
            ensure_eq(node.any_halted(), walked.iter().any(|(_, p)| p.is_halted()))?;
            ensure_eq(node.process_count(), pids.len())?;

            // Update the mirror and check the arena agrees with what the
            // naive map remembers.
            for (pid, &(_, walked_rec)) in pids.into_iter().zip(&walked) {
                let info = match node.process_info(pid) {
                    Some(info) => info,
                    None => return Err(format!("{pid} vanished from the arena")),
                };
                ensure_eq(info.pid, pid)?;
                // Slot addressing must be self-consistent.
                let rec = node
                    .process(pid)
                    .ok_or_else(|| format!("{pid} has no record"))?;
                ensure(
                    std::ptr::eq(rec, walked_rec),
                    format!("{pid} reads another record than the walk pairs it with"),
                )?;
                let exit = node.exit_values(pid).map(<[Value]>::to_vec);
                match mirror.get_mut(&pid.0) {
                    Some(m) => {
                        ensure_eq(&*info.name, m.name.as_str())?;
                        if m.dead {
                            ensure(
                                info.state.is_dead(),
                                format!("{pid} came back from the dead: {:?}", info.state),
                            )?;
                        }
                        if m.exit.is_some() {
                            ensure_eq(&exit, &m.exit)?;
                        }
                        m.dead = info.state.is_dead();
                        m.exit = exit;
                    }
                    None => {
                        mirror.insert(
                            pid.0,
                            Remembered {
                                name: info.name.to_string(),
                                dead: info.state.is_dead(),
                                exit,
                            },
                        );
                    }
                }
            }

            // Out-of-range lookups miss instead of aliasing a slot.
            ensure(node.process(Pid(0)).is_none(), "Pid(0) must miss")?;
            ensure(
                node.process(Pid(observed_max + 1)).is_none(),
                "one-past-the-end pid must miss",
            )?;
            ensure(node.process(Pid(u64::MAX)).is_none(), "huge pid must miss")?;
        }
        Ok(())
    });
    assert!(
        largest.get() > 2 * CHUNK,
        "no sequence crossed two chunk seams: at most {} records",
        largest.get()
    );
}

#[test]
fn step_one_and_advance_to_match_a_twin_run() {
    // Two identically seeded nodes driven through the same operation
    // sequence must observe identical per-process states after every
    // step — the arena introduces no hidden scheduling state beyond what
    // the naive keyed view exposes.
    let program = program();
    let ops = vecs(zip(int_range(0, 7), int_range(0, 64)), 30);
    check_n("arena_twin_runs_agree", 40, &ops, |seq| {
        let mut a = fresh_node(&program);
        let mut b = fresh_node(&program);
        for (op, k) in seq {
            let pa = apply(&mut a, *op, *k);
            let pb = apply(&mut b, *op, *k);
            ensure_eq(pa, pb)?;
            ensure_eq(a.clock(), b.clock())?;
            let pids = a.pids();
            ensure_eq(pids.len(), b.pids().len())?;
            for pid in pids {
                let ia = format!("{:?}", a.process_info(pid));
                let ib = format!("{:?}", b.process_info(pid));
                ensure_eq(ia.as_str(), ib.as_str())?;
            }
        }
        Ok(())
    });
}
