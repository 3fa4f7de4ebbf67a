//! The order-processing application `end_to_end` debugs and
//! `replay_gate` records: shared so both drive the same world.

use pilgrim::{SimDuration, World};
use pilgrim_services::{AotConfig, AotMan, TimeoutStrategy, FILE_SERVER_SOURCE};

/// A small "order processing" application:
/// node 0 — front end; node 1 — pricing service (CCLU); node 2 — file
/// server (CCLU, from pilgrim-services); node 3 — AOTMan (native).
pub const FRONT_END: &str = "\
extern fs_write = proc (name: string, data: string) returns (bool)
extern fs_read = proc (name: string, caller: int) returns (bool, string, int)
extern aot_issue = proc () returns (int, int)
extern aot_refresh = proc (t: int) returns (bool)

order = record[id: int, qty: int, total: int]

print_order = proc (o: order) returns (string)
 s: string := \"order#\" || int$unparse(o.id) || \" x\" || int$unparse(o.qty)
 return (s || \" = \" || int$unparse(o.total))
end

price = proc (qty: int) returns (int)
 fail(\"only the pricing node implements price\")
end

process_order = proc (id: int, qty: int) returns (int)
 unit: int := call price(qty) at 1
 o: order := order${id: id, qty: qty, total: unit * qty}
 print(o)
 ok: bool := call fs_write(\"order-\" || int$unparse(id), int$unparse(o.total)) at 2
 return (o.total)
end

main = proc ()
 tuid: int := 0
 life: int := 0
 tuid, life := call aot_issue() at 3
 grand: int := 0
 for id: int := 1 to 3 do
  grand := grand + process_order(id, id * 2)
  ok: bool := call aot_refresh(tuid) at 3
 end
 print(\"grand total \" || int$unparse(grand))
end";

pub const PRICING: &str = "\
price = proc (qty: int) returns (int)
 if qty >= 5 then
  return (90)
 end
 return (100)
end";

/// The application with AOTMan (3 s TUIDs, Figure 4 strategy) on node 3.
pub fn build_app() -> (World, AotMan) {
    let mut w = World::builder()
        .nodes(4)
        .program(FRONT_END)
        .program_for(1, PRICING)
        .program_for(2, FILE_SERVER_SOURCE)
        .build()
        .expect("application builds");
    let aot = AotMan::install(
        &mut w,
        3,
        AotConfig {
            lifetime: SimDuration::from_secs(3),
            strategy: TimeoutStrategy::StatusAndConvert,
            ..Default::default()
        },
    );
    (w, aot)
}
