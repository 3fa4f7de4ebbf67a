//! Property tests for process names as indices.
//!
//! A record carries a four-byte `NameId`, not a string: a procedure's id,
//! resolved through the node's current program, or a slot of the node's
//! append-only, deduplicated table of override names. These properties
//! drive a profiled node through random spawns by name and by procedure
//! id, forks, native spawns, override names both repeated and fresh,
//! names derived from a procedure (`rpc:<proc>`), and breakpoint plants
//! through `program_mut` (which copy-on-writes the shared program), and
//! after every step check each reader of a name — the record resolved by
//! `Node::name`, `process_info`, the `processes` walk and the profiler's
//! `time_ledgers` — against a model that keeps every process's name as a
//! `String`.

use std::collections::BTreeSet;
use std::sync::Arc;

use pilgrim_cclu::{compile, CodeAddr, ExecEnv, Op, ProcId, Program, StepOutcome, Value};
use pilgrim_mayflower::{NativeProcess, Node, NodeConfig, Pid, SpawnOpts};
use pilgrim_sim::check::{check_n, ensure, ensure_eq, int_range, vecs, zip};
use pilgrim_sim::{SimDuration, Tracer};

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

/// Overrides drawn from a small pool, so they repeat.
const POOL: [&str; 3] = ["rpc:worker", "agent:forker", "shared"];

/// A native body that exits at its first step, named by its caller.
struct Native(&'static str);

impl NativeProcess for Native {
    fn step(&mut self, _resume: Vec<Value>, _env: &mut ExecEnv<'_>) -> StepOutcome {
        StepOutcome::Exited { cost: 1 }
    }

    fn name(&self) -> &str {
        self.0
    }
}

fn program() -> Arc<Program> {
    Arc::new(compile(PROGRAM).expect("property program compiles"))
}

fn profiled_node(program: &Arc<Program>) -> Node {
    let config = NodeConfig {
        profile_vm: true,
        ..NodeConfig::default()
    };
    Node::new(3, program.clone(), config, Tracer::new())
}

/// The model: each process's name by slot, and every override name used.
#[derive(Default)]
struct Model {
    names: Vec<String>,
    overrides: BTreeSet<String>,
    fresh: u64,
}

impl Model {
    fn spawned(&mut self, node: &Node, pid: Pid, name: &str) -> Result<(), String> {
        ensure_eq(pid, Pid(self.names.len() as u64 + 1))?;
        self.names.push(name.to_string());
        ensure_eq(node.process_count(), self.names.len())
    }

    fn override_name(&mut self, node: &mut Node, name: String) -> SpawnOpts {
        let id = node.intern_name(&name);
        self.overrides.insert(name);
        SpawnOpts {
            name: Some(id),
            ..SpawnOpts::default()
        }
    }

    /// Records forked since the last check: this program forks only
    /// `worker`, and a fork is named for its procedure, never for its
    /// parent's override.
    fn forks(&mut self, node: &Node) {
        while self.names.len() < node.process_count() {
            self.names.push("worker".to_string());
        }
    }
}

/// Applies one `(op, k)` pair to the node and the model.
fn apply(node: &mut Node, model: &mut Model, op: i64, k: i64) -> Result<(), String> {
    let entry = if k % 2 == 0 { "worker" } else { "forker" };
    let args = |entry: &str| {
        if entry == "worker" {
            vec![Value::Int(k % 3 + 1)]
        } else {
            vec![]
        }
    };
    match op {
        // By name, under the procedure's own name.
        0 => {
            let pid = node
                .spawn(entry, args(entry), SpawnOpts::default())
                .map_err(|e| e.to_string())?;
            model.spawned(node, pid, entry)
        }
        // By procedure id.
        1 => {
            let id = node.program().proc_by_name(entry).ok_or("no procedure")?;
            let pid = node.spawn_proc(id, args(entry), SpawnOpts::default());
            model.spawned(node, pid, entry)
        }
        // Under a repeated override.
        2 => {
            let name = POOL[k as usize % POOL.len()].to_string();
            let opts = model.override_name(node, name.clone());
            let pid = node
                .spawn(entry, args(entry), opts)
                .map_err(|e| e.to_string())?;
            model.spawned(node, pid, &name)
        }
        // Under a fresh override.
        3 => {
            model.fresh += 1;
            let name = format!("fresh{}", model.fresh);
            let opts = model.override_name(node, name.clone());
            let id = node.program().proc_by_name(entry).ok_or("no procedure")?;
            let pid = node.spawn_proc(id, args(entry), opts);
            model.spawned(node, pid, &name)
        }
        // A native body under its own name, which lands in the table too.
        4 => {
            let name = ["watch#a", "watch#b"][k as usize % 2];
            let pid = node.spawn_native(Box::new(Native(name)), SpawnOpts::default());
            model.overrides.insert(name.to_string());
            model.spawned(node, pid, name)
        }
        // A native body under an override.
        5 => {
            let name = POOL[k as usize % POOL.len()].to_string();
            let opts = model.override_name(node, name.clone());
            let pid = node.spawn_native(Box::new(Native("unused")), opts);
            model.spawned(node, pid, &name)
        }
        // Under a name derived from the procedure, which the pool above
        // also interns by text.
        6 => {
            let prefix = ["rpc:", "agent:"][k as usize % 2];
            let id = node.program().proc_by_name(entry).ok_or("no procedure")?;
            let name = format!("{prefix}{entry}");
            let opts = SpawnOpts {
                name: Some(node.intern_prefixed(prefix, id)),
                ..SpawnOpts::default()
            };
            model.overrides.insert(name.clone());
            let pid = node.spawn_proc(id, args(entry), opts);
            model.spawned(node, pid, &name)
        }
        // A breakpoint plant through the copy-on-write program.
        7 => {
            let proc = ProcId((k % 2) as u16);
            let len = node.program().proc(proc).code.len() as i64;
            let addr = CodeAddr {
                proc,
                pc: (k % len) as u32,
            };
            node.program_mut().replace_op(addr, Op::Trap(k as u16));
            Ok(())
        }
        // Time passes: workers run, forkers fork, some trap.
        _ => {
            let clock = node.clock();
            node.advance_to(clock + SimDuration::from_millis(k as u64 % 3 + 1));
            model.forks(node);
            Ok(())
        }
    }
}

/// Every reader of a name agrees with the model, and the override table
/// holds each used override exactly once.
fn check_names(node: &Node, model: &Model) -> Result<(), String> {
    ensure_eq(node.process_count(), model.names.len())?;
    for (pid, p) in node.processes() {
        let want = model.names[pid.0 as usize - 1].as_str();
        ensure_eq(&**node.name(p.name), want)?;
        let info = node.process_info(pid).ok_or("no info")?;
        ensure_eq(&*info.name, want)?;
    }
    let ledgers = node.time_ledgers();
    ensure_eq(ledgers.len(), model.names.len())?;
    for (slot, ((pid, name, _, _), want)) in ledgers.iter().zip(&model.names).enumerate() {
        ensure_eq(*pid, Pid(slot as u64 + 1))?;
        ensure_eq(name, want)?;
    }
    let table: Vec<&str> = node.override_names().iter().map(|n| &**n).collect();
    let distinct: BTreeSet<&str> = table.iter().copied().collect();
    ensure(
        distinct.len() == table.len(),
        format!("a name is in the override table twice: {table:?}"),
    )?;
    ensure_eq(
        distinct,
        model
            .overrides
            .iter()
            .map(String::as_str)
            .collect::<BTreeSet<_>>(),
    )
}

#[test]
fn every_reader_resolves_a_record_to_its_model_name() {
    let program = program();
    let ops = vecs(zip(int_range(0, 9), int_range(0, 64)), 40);
    check_n("names_match_the_model", 80, &ops, |seq| {
        let mut node = profiled_node(&program);
        let mut model = Model::default();
        for (op, k) in seq {
            apply(&mut node, &mut model, *op, *k)?;
            check_names(&node, &model)?;
        }
        Ok(())
    });
}

/// One override name costs one table entry, however many processes bear
/// it, whether the caller interns it once or at every spawn.
#[test]
fn ten_thousand_spawns_under_one_override_leave_one_entry() {
    let program = program();
    let mut node = Node::new(0, program, NodeConfig::default(), Tracer::new());
    let once = node.intern_name("rpc:worker");
    for i in 0..10_000 {
        let name = if i % 2 == 0 {
            once
        } else {
            node.intern_name("rpc:worker")
        };
        let opts = SpawnOpts {
            name: Some(name),
            ..SpawnOpts::default()
        };
        node.spawn("worker", vec![Value::Int(1)], opts)
            .expect("worker exists");
    }
    assert_eq!(node.override_names().len(), 1);
    assert_eq!(&*node.override_names()[0], "rpc:worker");
    assert!(node
        .processes()
        .all(|(_, p)| p.name == once && &**node.name(p.name) == "rpc:worker"));
    // The prefixed cache mints through the same table.
    let worker = node.program().proc_by_name("worker").expect("worker");
    assert_eq!(node.intern_prefixed("rpc:", worker), once);
    assert_eq!(node.override_names().len(), 1);
}

/// Breakpoint patching copy-on-writes the shared program and rewrites
/// code only: every procedure keeps its name, so a record named for its
/// procedure reads the same name after a plant as before it, and the
/// nodes still sharing the original are untouched.
#[test]
fn a_breakpoint_plant_never_renames_a_procedure() {
    let program = program();
    let mut node = Node::new(0, program.clone(), NodeConfig::default(), Tracer::new());
    let names =
        |p: &Program| -> Vec<String> { p.procs.iter().map(|c| c.debug.name.to_string()).collect() };
    let before = names(node.program());
    let pid = node
        .spawn("forker", vec![], SpawnOpts::default())
        .expect("forker exists");
    for (i, proc) in program.procs.iter().enumerate() {
        for pc in 0..proc.code.len() as u32 {
            let addr = CodeAddr {
                proc: ProcId(i as u16),
                pc,
            };
            node.program_mut().replace_op(addr, Op::Trap(pc as u16));
        }
    }
    assert!(!std::ptr::eq(node.program(), &*program), "copied on write");
    assert_eq!(names(node.program()), before);
    assert_eq!(names(&program), before);
    let rec = node.process(pid).expect("spawned");
    assert_eq!(&**node.name(rec.name), "forker");
}
