//! `pilgrim <replay|prof|trace|load|selftest>` — see
//! [`pilgrim_services::tool`], which this only forwards to.

use std::io::{stderr, stdout};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(pilgrim_services::tool::run(
        &args,
        &mut stdout().lock(),
        &mut stderr().lock(),
    ))
}
