//! A name server, the remaining Cambridge Distributed Computing System
//! staple (§6: "file servers, name servers, print servers and so on cannot
//! be halted since other users would be denied service").
//!
//! Programs register services by name and look them up instead of
//! hard-coding node ids:
//!
//! * `ns_register(name, node) returns (ok)`
//! * `ns_lookup(name) returns (found, node)`
//! * `ns_unregister(name) returns (ok)`
//!
//! The name server is deliberately debugger-*unaware*: it holds no client
//! timeouts, so it needs none of the §6 machinery — a useful contrast with
//! AOTMan and the Resource Manager in the examples.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use pilgrim::World;
use pilgrim_cclu::{Type, Value};
use pilgrim_ring::NodeId;
use pilgrim_rpc::{HandlerCtx, RpcEndpoint};
use pilgrim_sim::Json;

use crate::sig;

/// Extern declarations a client program needs to talk to the name server.
pub const NAME_SERVER_EXTERNS: &str = "\
extern ns_register = proc (name: string, node: int) returns (bool)
extern ns_lookup = proc (name: string) returns (bool, int)
extern ns_unregister = proc (name: string) returns (bool)
";

#[derive(Debug, Default)]
struct NsState {
    names: HashMap<String, i64>,
    registrations: u64,
    lookups: u64,
}

/// The name server service. Its state is reached only by its handlers and
/// this handle, never by a watcher process, so it is not locked.
#[derive(Debug, Clone)]
pub struct NameServer {
    state: Rc<RefCell<NsState>>,
    node: u32,
}

impl NameServer {
    /// Installs the name server on `node` of `world`, noting a
    /// `nameserver` setup entry.
    pub fn install(world: &mut World, node: u32) -> NameServer {
        let state = Rc::new(RefCell::new(NsState::default()));
        let params = Json::obj(vec![("node", Json::Int(node.into()))]);
        world.install("nameserver", params, |setup| {
            NameServer::handlers(setup.endpoint(node), &state);
        });
        NameServer { state, node }
    }

    fn handlers(ep: &mut RpcEndpoint, state: &Rc<RefCell<NsState>>) {
        let s = state.clone();
        ep.register_handler(
            "ns_register",
            sig(&[Type::Str, Type::Int], &[Type::Bool]),
            Box::new(move |_: &mut HandlerCtx<'_>, args: Vec<Value>| {
                let name = args[0].as_str().ok_or("name must be a string")?;
                let node = args[1].as_int().ok_or("node must be an int")?;
                let mut s = s.borrow_mut();
                let fresh = !s.names.contains_key(name);
                if fresh {
                    s.names.insert(name.to_string(), node);
                    s.registrations += 1;
                }
                Ok(vec![Value::Bool(fresh)])
            }),
        );
        let s = state.clone();
        ep.register_handler(
            "ns_lookup",
            sig(&[Type::Str], &[Type::Bool, Type::Int]),
            Box::new(move |_: &mut HandlerCtx<'_>, args: Vec<Value>| {
                let name = args[0].as_str().ok_or("name must be a string")?;
                let mut s = s.borrow_mut();
                s.lookups += 1;
                let node = s.names.get(name).copied();
                Ok(vec![
                    Value::Bool(node.is_some()),
                    Value::Int(node.unwrap_or(-1)),
                ])
            }),
        );
        let s = state.clone();
        ep.register_handler(
            "ns_unregister",
            sig(&[Type::Str], &[Type::Bool]),
            Box::new(move |_: &mut HandlerCtx<'_>, args: Vec<Value>| {
                let name = args[0].as_str().ok_or("name must be a string")?;
                Ok(vec![Value::Bool(
                    s.borrow_mut().names.remove(name).is_some(),
                )])
            }),
        );
    }

    /// The node the service runs on.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Rust-side lookup (for tests and harnesses).
    pub fn resolve(&self, name: &str) -> Option<NodeId> {
        let s = self.state.borrow();
        s.names.get(name).map(|n| NodeId(*n as u32))
    }

    /// Rust-side registration (service bootstrap), noted as an
    /// `ns-register` setup entry of `world`, the world the server is
    /// installed in.
    pub fn register(&self, world: &mut World, name: &str, node: NodeId) {
        let params = Json::obj(vec![
            ("name", Json::Str(name.into())),
            ("node", Json::Int(node.0.into())),
        ]);
        world.install("ns-register", params, |_| {
            let mut s = self.state.borrow_mut();
            s.names.insert(name.to_string(), i64::from(node.0));
            s.registrations += 1;
        });
    }

    /// Counters: `(registrations, lookups)`.
    pub fn stats(&self) -> (u64, u64) {
        let s = self.state.borrow();
        (s.registrations, s.lookups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilgrim::{SimTime, Value as V};

    #[test]
    fn register_lookup_unregister_from_cclu() {
        let src = format!(
            "{NAME_SERVER_EXTERNS}
main = proc (ns: int)
 ok: bool := call ns_register(\"printer\", 7) at ns
 print(ok)
 dup: bool := call ns_register(\"printer\", 8) at ns
 print(dup)
 found: bool := false
 node: int := 0
 found, node := call ns_lookup(\"printer\") at ns
 print(node)
 gone: bool := call ns_unregister(\"printer\") at ns
 found, node := call ns_lookup(\"printer\") at ns
 print(found)
end"
        );
        let mut w = pilgrim::World::builder()
            .nodes(2)
            .program(&src)
            .debugger(false)
            .build()
            .unwrap();
        let ns = NameServer::install(&mut w, 1);
        w.spawn(0, "main", vec![V::Int(1)]);
        w.run_until_idle(SimTime::from_secs(10));
        assert_eq!(w.console(0), vec!["true", "false", "7", "false"]);
        let (regs, lookups) = ns.stats();
        assert_eq!(regs, 1);
        assert_eq!(lookups, 2);
    }

    #[test]
    fn rust_side_bootstrap_registration() {
        let src = format!(
            "{NAME_SERVER_EXTERNS}
main = proc (ns: int)
 found: bool := false
 node: int := 0
 found, node := call ns_lookup(\"aotman\") at ns
 if found then
  print(\"aotman at \" || int$unparse(node))
 end
end"
        );
        let mut w = pilgrim::World::builder()
            .nodes(2)
            .program(&src)
            .debugger(false)
            .build()
            .unwrap();
        let ns = NameServer::install(&mut w, 1);
        ns.register(&mut w, "aotman", NodeId(3));
        assert_eq!(ns.resolve("aotman"), Some(NodeId(3)));
        w.spawn(0, "main", vec![V::Int(1)]);
        w.run_until_idle(SimTime::from_secs(10));
        assert_eq!(w.console(0), vec!["aotman at 3"]);
    }
}
