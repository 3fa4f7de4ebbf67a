//! The noise sentinel: a fixed kernel that shares no code with the
//! repository. Its time moves only with the host.
//!
//! The 2-core reference box changes speed by ±25 % for minutes at a time,
//! and what slows down is high-IPC, branchy code — what an interpreter is
//! — far more than a chain of dependent loads. The kernel therefore has
//! three parts: the dependent loads with small allocations, four
//! independent xorshift streams with independent loads (bound by issue
//! width), and a small bytecode loop (bound by branch prediction and
//! dispatch). It runs before and after every unit, and serves twice:
//!
//! * every host time is **scaled to the host speed at which the kernel
//!   takes [`REFERENCE_MS`]**, by the kernel's own time around the
//!   measurement. Measured over six minutes on the reference box, the
//!   lower quartile of 15-second windows of `compute` moved by 19 % raw
//!   and by 3 % scaled;
//! * a run whose kernel times spread by more than 10 % (p75 ÷ p25) is
//!   marked noisy, so a reader can tell a slow host from a slow commit.

use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// The kernel's time on the reference box when nothing else runs there.
pub const REFERENCE_MS: f64 = 10.0;
/// 64 Ki words = 512 KiB: larger than L1 and most L2 slices.
const TABLE_WORDS: usize = 64 * 1024;
const CHASE_ROUNDS: usize = 575_000;
const STREAM_ROUNDS: usize = 1_150_000;
const LOOP_COUNT: i64 = 230_000;
const NOISY_ABOVE: f64 = 1.10;

#[derive(Debug)]
pub struct Sentinel {
    table: Vec<u64>,
    samples_ms: Vec<f64>,
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Dependent loads: each index comes from the word just loaded. Every
/// few thousand rounds a small vector is allocated and freed.
fn chase(table: &[u64]) -> u64 {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut at = 0usize;
    for round in 0..CHASE_ROUNDS {
        x = xorshift(x);
        at = (table[at] ^ x) as usize % TABLE_WORDS;
        if round % 4096 == 0 {
            let small: Vec<u64> = vec![x; 1 + at % 64];
            x ^= black_box(&small)[small.len() - 1];
        }
    }
    x ^ at as u64
}

/// Four xorshift streams that do not depend on each other, and loads
/// whose addresses do not depend on loaded data.
fn streams(table: &[u64]) -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    let mut sum = 0u64;
    for i in 0..STREAM_ROUNDS {
        a = xorshift(a);
        b = xorshift(b);
        c = xorshift(c);
        d = xorshift(d);
        sum = sum.wrapping_add(table[(i * 7) % TABLE_WORDS] ^ a ^ b ^ c ^ d);
    }
    sum
}

#[derive(Clone, Copy)]
enum Op {
    Push(i64),
    Load(usize),
    Store(usize),
    Add,
    Less,
    JumpIfZero(usize),
    Jump(usize),
    Halt,
}

/// `i = 0; acc = 0; while i < LOOP_COUNT { acc += i; i += 1 }` on a stack
/// machine with one `match` per instruction.
fn interpret() -> u64 {
    use Op::*;
    let program = [
        Push(0),
        Store(0),
        Push(0),
        Store(1),
        Load(0), // 4: loop head
        Push(LOOP_COUNT),
        Less,
        JumpIfZero(17),
        Load(1),
        Load(0),
        Add,
        Store(1),
        Load(0),
        Push(1),
        Add,
        Store(0),
        Jump(4),
        Halt, // 17
    ];
    let mut stack: Vec<i64> = Vec::with_capacity(8);
    let mut locals = [0i64; 2];
    let mut pc = 0;
    let pop = |stack: &mut Vec<i64>| stack.pop().unwrap_or(0);
    loop {
        match black_box(program[pc]) {
            Push(v) => stack.push(v),
            Load(i) => stack.push(locals[i]),
            Store(i) => locals[i] = pop(&mut stack),
            Add => {
                let (b, a) = (pop(&mut stack), pop(&mut stack));
                stack.push(a.wrapping_add(b));
            }
            Less => {
                let (b, a) = (pop(&mut stack), pop(&mut stack));
                stack.push((a < b) as i64);
            }
            JumpIfZero(target) => {
                if pop(&mut stack) == 0 {
                    pc = target;
                    continue;
                }
            }
            Jump(target) => {
                pc = target;
                continue;
            }
            Halt => break,
        }
        pc += 1;
    }
    locals[1] as u64
}

impl Sentinel {
    pub fn new() -> Sentinel {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let table = (0..TABLE_WORDS)
            .map(|_| {
                x = xorshift(x);
                x
            })
            .collect();
        Sentinel {
            table,
            samples_ms: Vec::new(),
        }
    }

    /// Runs the kernel once; records and returns its wall time, ms.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(chase(&self.table) ^ streams(&self.table) ^ interpret());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.samples_ms.push(ms);
        ms
    }

    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }

    /// Lower quartile of the kernel time, ms.
    pub fn calib_ms(&self) -> f64 {
        stats::p25(&self.samples_ms)
    }

    /// p75 ÷ p25 of the kernel time; 1.0 with fewer than two samples.
    pub fn noise_ratio(&self) -> f64 {
        let lo = stats::p25(&self.samples_ms);
        if self.samples_ms.len() < 2 || lo <= 0.0 {
            return 1.0;
        }
        stats::quantile(&self.samples_ms, 0.75) / lo
    }

    pub fn noisy(&self) -> bool {
        self.noise_ratio() > NOISY_ABOVE
    }
}

/// The factor that takes a host time measured between two kernel samples
/// to the reference host speed.
pub fn scale(before_ms: f64, after_ms: f64) -> f64 {
    let around = (before_ms + after_ms) / 2.0;
    if around > 0.0 {
        REFERENCE_MS / around
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_computes_what_it_says() {
        // Σ 0..LOOP_COUNT, so the bytecode loop really ran to its end.
        assert_eq!(interpret(), (LOOP_COUNT * (LOOP_COUNT - 1) / 2) as u64);
        let mut s = Sentinel::new();
        assert!(s.sample() > 0.0);
        assert_eq!(s.samples(), 1);
        assert_eq!(s.noise_ratio(), 1.0);
    }

    #[test]
    fn scaling_takes_a_slow_host_back_to_the_reference() {
        assert_eq!(scale(REFERENCE_MS, REFERENCE_MS), 1.0);
        // The kernel took 25 % longer than on the reference host: times
        // measured beside it are scaled down by the same share.
        assert!((scale(12.0, 13.0) - 0.8).abs() < 1e-12);
        assert_eq!(scale(0.0, 0.0), 1.0);
    }
}
