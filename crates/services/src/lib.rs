//! Simulated Cambridge Distributed Computing System servers, made
//! debugger-aware per §6 of the Pilgrim paper.
//!
//! "A characteristic of distributed programs is that they use public
//! servers shared with other users" — and those servers cannot simply be
//! halted when one client is being debugged. This crate provides the
//! servers the paper's examples use, each implementing the §6 strategies:
//!
//! * [`AotMan`] — the authentication manager issuing TUIDs that "must be
//!   continually refreshed before their timeouts ... expire";
//! * [`ResourceManager`] — machine allocation with long reclamation
//!   leases, including the reclaim-on-contention refinement;
//! * the file server ([`FILE_SERVER_SOURCE`]) — written in Concurrent CLU,
//!   demonstrating date/time conversion of file modification times;
//! * [`NameServer`] — service-name registration and lookup (deliberately
//!   debugger-unaware: it holds no client timeouts);
//! * [`TimeoutStrategy`] with [`Watcher`] — the Figure 3 and Figure 4
//!   timeout-extension algorithms as reusable machinery.
//!
//! It is also where the `pilgrim` command lives ([`tool`]): the one crate
//! that links both the debugging core and the native service installers
//! a recorded load run needs to be re-run.

#![warn(missing_docs)]

mod aotman;
mod fileserver;
mod load;
mod nameserver;
mod resource;
mod scenario;
mod strategy;
pub mod tool;

pub use aotman::{AotConfig, AotMan, TuidRecord};
pub use fileserver::{CLIENT_EXTERNS, FILE_SERVER_SOURCE};
pub use load::{
    build_load_world, outcome_from_world, render_run_report, replay_load, replay_load_artifact,
    run_scenario, setup_installer, LoadOutcome, AOT_NODE, FIRST_CLIENT_NODE, FS_NODE, NS_NODE,
};
pub use nameserver::{NameServer, NAME_SERVER_EXTERNS};
pub use resource::{ResourceManager, RmConfig, RmEvent};
pub use scenario::{Scenario, TraceLevel};
pub use strategy::{GrantHooks, StrategyEvent, StrategyStats, TimeoutStrategy, Watcher};

use pilgrim_cclu::{Signature, Type, Value};
use pilgrim_mayflower::SemId;
use pilgrim_rpc::HandlerCtx;
use pilgrim_sim::json::Fields;
use pilgrim_sim::{Json, SimDuration};

/// A native procedure's signature.
fn sig(params: &[Type], returns: &[Type]) -> Signature {
    Signature {
        params: params.to_vec(),
        returns: returns.to_vec(),
    }
}

/// A refresh procedure's answer: signals the grant's watcher, if the
/// grant was found, and says whether it was.
fn signal(ctx: &mut HandlerCtx<'_>, sem: Option<SemId>) -> Result<Vec<Value>, String> {
    if let Some(sem) = sem {
        ctx.node.signal_sem(sem);
    }
    Ok(vec![Value::Bool(sem.is_some())])
}

/// A duration in a setup entry: whole microseconds.
fn us(d: SimDuration) -> Json {
    Json::Int(d.as_micros().into())
}

/// A setup entry's optional `strategy` key.
fn opt_strategy(f: &Fields<'_>) -> Result<Option<TimeoutStrategy>, String> {
    f.opt_str("strategy")?
        .map(TimeoutStrategy::parse)
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilgrim::{SimDuration, SimTime, Value, World};

    /// A client that takes a TUID and refreshes it every `interval` ms,
    /// `count` times, then reports whether it is still valid.
    const AOT_CLIENT: &str = "\
extern aot_issue = proc () returns (int, int)
extern aot_refresh = proc (t: int) returns (bool)
extern aot_check = proc (t: int) returns (bool)
main = proc (svc: int, count: int, interval: int)
 t: int := 0
 life: int := 0
 t, life := call aot_issue() at svc
 for i: int := 1 to count do
  sleep(interval)
  ok: bool := call aot_refresh(t) at svc
  if ~ok then
   print(\"refresh rejected\")
   return
  end
 end
 valid: bool := call aot_check(t) at svc
 if valid then
  print(\"tuid survived\")
 else
  print(\"tuid lost\")
 end
end";

    /// Builds a two-node world (0 = client, 1 = service) with AOTMan under
    /// `strategy`, runs the refresh loop with a mid-run halt of
    /// `halt_secs`, and returns (console of client, service).
    fn aot_scenario(strategy: TimeoutStrategy, halt_secs: u64) -> (Vec<String>, AotMan) {
        let mut w = World::builder()
            .nodes(2)
            .program(AOT_CLIENT)
            .build()
            .unwrap();
        let aot = AotMan::install(
            &mut w,
            1,
            AotConfig {
                lifetime: SimDuration::from_secs(2),
                strategy,
                ..Default::default()
            },
        );
        w.debug_connect(&[0], false).unwrap();
        // Refresh every second, eight times: plenty of margin normally.
        w.spawn(
            0,
            "main",
            vec![Value::Int(1), Value::Int(8), Value::Int(1000)],
        );
        w.run_for(SimDuration::from_millis(2_500));
        if halt_secs > 0 {
            w.debug_halt_all(0).unwrap();
            w.run_for(SimDuration::from_secs(halt_secs));
            w.debug_resume_all().unwrap();
        }
        w.run_until_idle(w.now() + SimDuration::from_secs(30));
        (w.console(0), aot)
    }

    #[test]
    fn naive_server_revokes_tuid_of_halted_client() {
        // Halt for 5 s > the 2 s TUID lifetime: the naive server expires
        // the TUID while the client cannot possibly refresh.
        let (console, aot) = aot_scenario(TimeoutStrategy::Naive, 5);
        assert!(
            console.contains(&"refresh rejected".to_string())
                || console.contains(&"tuid lost".to_string()),
            "{console:?}"
        );
        assert_eq!(aot.stats().revocations, 1);
        assert_eq!(aot.stats().status_calls, 0, "naive never asks");
    }

    #[test]
    fn figure3_extends_through_the_halt() {
        let (console, aot) = aot_scenario(TimeoutStrategy::StatusOnly, 5);
        assert_eq!(console, vec!["tuid survived"], "stats: {:?}", aot.stats());
        let stats = aot.stats();
        assert!(stats.extensions >= 1, "{stats:?}");
        // Figure 3's cost: a status call at the start of every timeout
        // episode (one per refresh) plus the expiry checks.
        assert!(stats.status_calls > 8, "{stats:?}");
        assert_eq!(stats.convert_calls, 0);
    }

    #[test]
    fn figure4_extends_through_the_halt_with_fewer_calls() {
        let (console, aot) = aot_scenario(TimeoutStrategy::StatusAndConvert, 5);
        assert_eq!(console, vec!["tuid survived"], "stats: {:?}", aot.stats());
        let stats = aot.stats();
        assert!(stats.extensions >= 1);
        // Figure 4 pays nothing until a timeout actually expires: a
        // handful of expiry-time calls during the halt (plus the final
        // expiry after the client stops refreshing), far fewer than
        // Figure 3's one-per-episode.
        assert!(
            stats.status_calls <= 5,
            "only expiry-time status calls expected: {stats:?}"
        );
        assert!(stats.convert_calls >= 1);
    }

    #[test]
    fn figure4_is_free_when_nothing_expires() {
        let (console, aot) = aot_scenario(TimeoutStrategy::StatusAndConvert, 0);
        assert_eq!(console, vec!["tuid survived"]);
        let stats = aot.stats();
        // While the client was refreshing, Figure 4 did no work at all;
        // the single status call belongs to the final genuine expiry
        // after the client finished and stopped refreshing.
        assert!(stats.status_calls <= 1, "no work until expiry: {stats:?}");
        assert_eq!(stats.convert_calls, 0);
        assert_eq!(stats.refreshes, 8);
    }

    #[test]
    fn figure3_pays_even_when_not_debugged() {
        // No halt, and the client is never even connected to a debugger:
        // Figure 3 still performs a status call per timeout episode — the
        // disadvantage the paper calls out.
        let mut w = World::builder()
            .nodes(2)
            .program(AOT_CLIENT)
            .build()
            .unwrap();
        let aot = AotMan::install(
            &mut w,
            1,
            AotConfig {
                lifetime: SimDuration::from_secs(2),
                strategy: TimeoutStrategy::StatusOnly,
                ..Default::default()
            },
        );
        w.spawn(
            0,
            "main",
            vec![Value::Int(1), Value::Int(8), Value::Int(1000)],
        );
        w.run_until_idle(SimTime::from_secs(30));
        assert_eq!(w.console(0), vec!["tuid survived"]);
        assert!(aot.stats().status_calls >= 8, "{:?}", aot.stats());
    }

    #[test]
    fn ignore_while_debugged_also_preserves_the_tuid() {
        let (console, aot) = aot_scenario(TimeoutStrategy::IgnoreWhileDebugged, 5);
        assert_eq!(console, vec!["tuid survived"], "stats: {:?}", aot.stats());
    }

    #[test]
    fn tuid_expires_when_client_genuinely_stops_refreshing() {
        // Even the debug-aware strategies revoke when the client is *not*
        // being debugged and simply stops refreshing.
        let src = "\
extern aot_issue = proc () returns (int, int)
main = proc (svc: int)
 t: int := 0
 life: int := 0
 t, life := call aot_issue() at svc
 print(\"got tuid\")
end";
        let mut w = World::builder().nodes(2).program(src).build().unwrap();
        let aot = AotMan::install(
            &mut w,
            1,
            AotConfig {
                lifetime: SimDuration::from_secs(2),
                strategy: TimeoutStrategy::StatusAndConvert,
                ..Default::default()
            },
        );
        w.spawn(0, "main", vec![Value::Int(1)]);
        w.run_until_idle(SimTime::from_secs(10));
        assert_eq!(w.console(0), vec!["got tuid"]);
        let id = aot.issued()[0];
        assert!(!aot.is_valid(id), "unrefreshed TUID must expire");
        assert_eq!(aot.stats().revocations, 1);
    }

    // -----------------------------------------------------------------
    // Resource Manager
    // -----------------------------------------------------------------

    const RM_CLIENT: &str = "\
extern rm_request = proc () returns (int)
extern rm_release = proc (r: int) returns (bool)
extern rm_renew = proc (r: int) returns (bool)
hold = proc (svc: int, renews: int, interval: int)
 r: int := call rm_request() at svc
 if r < 0 then
  print(\"denied\")
  return
 end
 print(\"granted \" || int$unparse(r))
 for i: int := 1 to renews do
  sleep(interval)
  ok: bool := call rm_renew(r) at svc
 end
end
grab = proc (svc: int)
 r: int := call rm_request() at svc
 if r < 0 then
  print(\"denied\")
 else
  print(\"granted \" || int$unparse(r))
 end
end";

    #[test]
    fn resource_granted_and_expires_without_renewal() {
        let mut w = World::builder()
            .nodes(2)
            .program(RM_CLIENT)
            .build()
            .unwrap();
        let rm = ResourceManager::install(
            &mut w,
            1,
            RmConfig {
                lease: SimDuration::from_secs(2),
                strategy: TimeoutStrategy::Naive,
                ..Default::default()
            },
        );
        w.spawn(0, "hold", vec![Value::Int(1), Value::Int(0), Value::Int(0)]);
        w.run_until_idle(SimTime::from_secs(10));
        assert_eq!(w.console(0), vec!["granted 0"]);
        assert_eq!(rm.free_count(), 1, "lease expired and the machine returned");
        assert!(rm
            .events()
            .iter()
            .any(|(_, e)| matches!(e, RmEvent::Expired { resource: 0, .. })));
    }

    #[test]
    fn a_revocation_is_stamped_when_it_happens() {
        // A naive TUID that is never refreshed is revoked a lifetime after
        // it was issued, not at its issue.
        let src = "\
extern aot_issue = proc () returns (int, int)
main = proc (svc: int)
 t: int := 0
 life: int := 0
 t, life := call aot_issue() at svc
end";
        let mut w = World::builder().nodes(2).program(src).build().unwrap();
        let lifetime = SimDuration::from_secs(2);
        let aot = AotMan::install(
            &mut w,
            1,
            AotConfig {
                lifetime,
                strategy: TimeoutStrategy::Naive,
                ..Default::default()
            },
        );
        w.spawn(0, "main", vec![Value::Int(1)]);
        w.run_until_idle(SimTime::from_secs(10));
        let tuid = aot.tuid(aot.issued()[0]).unwrap();
        let revoked = tuid.revoked_at.expect("an unrefreshed TUID is revoked");
        assert!(
            revoked >= tuid.issued_at + lifetime,
            "issued at {}, revoked at {revoked}",
            tuid.issued_at
        );

        // A lease that expires is logged when it expires, after a denial
        // that came between its grant and its expiry.
        let mut w = World::builder()
            .nodes(2)
            .program(RM_CLIENT)
            .build()
            .unwrap();
        let rm = ResourceManager::install(
            &mut w,
            1,
            RmConfig {
                lease: SimDuration::from_secs(2),
                strategy: TimeoutStrategy::Naive,
                ..Default::default()
            },
        );
        w.spawn(0, "hold", vec![Value::Int(1), Value::Int(0), Value::Int(0)]);
        w.run_for(SimDuration::from_secs(1));
        w.spawn(0, "grab", vec![Value::Int(1)]);
        w.run_until_idle(SimTime::from_secs(10));
        assert_eq!(w.console(0), vec!["granted 0", "denied"]);
        let events = rm.events();
        assert!(matches!(events.last(), Some((_, RmEvent::Expired { .. }))));
        assert!(
            events.windows(2).all(|p| p[0].0 <= p[1].0),
            "events out of order: {events:?}"
        );
    }

    #[test]
    fn contention_reclaims_extended_allocation() {
        // Client 0 holds the only machine and is halted under a debugger;
        // its lease is extended. Client 2 then asks for a machine: §6.2
        // says reclaim and reallocate.
        let mut w = World::builder()
            .nodes(3)
            .program(RM_CLIENT)
            .build()
            .unwrap();
        let rm = ResourceManager::install(
            &mut w,
            1,
            RmConfig {
                resources: 1,
                lease: SimDuration::from_secs(2),
                strategy: TimeoutStrategy::IgnoreWhileDebugged,
                reclaim_on_contention: true,
                ..Default::default()
            },
        );
        w.debug_connect(&[0], false).unwrap();
        w.spawn(
            0,
            "hold",
            vec![Value::Int(1), Value::Int(50), Value::Int(1000)],
        );
        w.run_for(SimDuration::from_millis(500));
        assert_eq!(w.console(0), vec!["granted 0"]);

        // Halt the holder; let its lease pass so the watcher extends it.
        w.debug_halt_all(0).unwrap();
        w.run_for(SimDuration::from_secs(4));
        assert!(rm.stats().extensions >= 1, "{:?}", rm.stats());
        assert_eq!(
            rm.holder(0).map(|n| n.0),
            Some(0),
            "still held while extended"
        );

        // A third party asks: the extended allocation is preempted.
        w.spawn(2, "grab", vec![Value::Int(1)]);
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(w.console(2), vec!["granted 0"]);
        assert_eq!(rm.holder(0).map(|n| n.0), Some(2));
        assert!(rm
            .events()
            .iter()
            .any(|(_, e)| matches!(e, RmEvent::ReclaimedForContention { .. })));
        w.debug_resume_all().unwrap();
    }

    #[test]
    fn without_contention_policy_the_extension_holds() {
        let mut w = World::builder()
            .nodes(3)
            .program(RM_CLIENT)
            .build()
            .unwrap();
        let rm = ResourceManager::install(
            &mut w,
            1,
            RmConfig {
                resources: 1,
                lease: SimDuration::from_secs(2),
                strategy: TimeoutStrategy::IgnoreWhileDebugged,
                reclaim_on_contention: false,
                ..Default::default()
            },
        );
        w.debug_connect(&[0], false).unwrap();
        w.spawn(
            0,
            "hold",
            vec![Value::Int(1), Value::Int(50), Value::Int(1000)],
        );
        w.run_for(SimDuration::from_millis(500));
        w.debug_halt_all(0).unwrap();
        w.run_for(SimDuration::from_secs(4));
        w.spawn(2, "grab", vec![Value::Int(1)]);
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(
            w.console(2),
            vec!["denied"],
            "debugged client keeps the machine"
        );
        assert_eq!(rm.holder(0).map(|n| n.0), Some(0));
        w.debug_resume_all().unwrap();
    }

    // -----------------------------------------------------------------
    // File server: converting date/time data
    // -----------------------------------------------------------------

    #[test]
    fn file_mtime_is_converted_into_client_logical_time() {
        let client = format!(
            "{CLIENT_EXTERNS}
writer = proc (svc: int)
 ok: bool := call fs_write(\"notes\", \"hello\") at svc
 print(\"wrote\")
end
reader = proc (svc: int)
 found: bool := false
 data: string := \"\"
 mt: int := 0
 found, data, mt := call fs_read(\"notes\", my_node()) at svc
 print(data)
 print(\"mtime \" || int$unparse(mt))
 print(\"now \" || int$unparse(now()))
end"
        );
        let mut w = World::builder()
            .nodes(2)
            .program(&client)
            .program_for(1, FILE_SERVER_SOURCE)
            .build()
            .unwrap();
        w.debug_connect(&[0], false).unwrap();

        // Write the file at ~t0, then halt the client for 5 s, then read.
        w.spawn(0, "writer", vec![Value::Int(1)]);
        w.run_for(SimDuration::from_millis(500));
        assert_eq!(w.console(0), vec!["wrote"]);
        w.debug_halt_all(0).unwrap();
        w.run_for(SimDuration::from_secs(5));
        w.debug_resume_all().unwrap();

        w.spawn(0, "reader", vec![Value::Int(1)]);
        w.run_until_idle(w.now() + SimDuration::from_secs(5));
        let out = w.console(0);
        assert_eq!(out[1], "hello");
        let mtime: i64 = out[2].trim_start_matches("mtime ").parse().unwrap();
        let client_now: i64 = out[3].trim_start_matches("now ").parse().unwrap();
        // The file was written ~0.1–0.5 s into the run (client logical
        // scale). Without conversion the mtime would exceed the client's
        // clock at the halt (≈500 ms) because real time ran 5 s ahead;
        // with conversion it stays consistent: mtime ≤ client_now and
        // close to the write instant.
        assert!(
            mtime <= client_now,
            "mtime {mtime} vs client now {client_now}"
        );
        assert!(
            mtime < 1_000,
            "converted mtime stays on the logical scale: {mtime}"
        );
    }

    #[test]
    fn file_mtime_is_raw_for_undebugged_clients() {
        let client = format!(
            "{CLIENT_EXTERNS}
rw = proc (svc: int)
 ok: bool := call fs_write(\"f\", \"x\") at svc
 found: bool := false
 data: string := \"\"
 mt: int := 0
 found, data, mt := call fs_read(\"f\", my_node()) at svc
 print(\"mtime \" || int$unparse(mt))
end"
        );
        let mut w = World::builder()
            .nodes(2)
            .program(&client)
            .program_for(1, FILE_SERVER_SOURCE)
            .build()
            .unwrap();
        w.spawn(0, "rw", vec![Value::Int(1)]);
        w.run_until_idle(SimTime::from_secs(5));
        let out = w.console(0);
        let mtime: i64 = out[0].trim_start_matches("mtime ").parse().unwrap();
        assert!(mtime > 0, "real mtime for an undebugged client: {out:?}");
    }
}
