//! Host-speed reference. The host this benchmark runs on is shared, and
//! its speed steps between levels up to 2x apart, for a fraction of a
//! second to tens of seconds at a time. User time rises with wall time
//! and the program makes few system calls, so the slowdown is in the
//! hardware, not in scheduling. A run that fell in a slow stretch would
//! read as a regression. So every timed call into the program (a segment
//! of a pass, or a set-up) is bracketed by runs of a fixed reference
//! kernel that is part of the benchmark, not of the program, and the
//! call's times are scaled to a nominal host speed by
//! `(NOMINAL_S / kernel time) ^ sensitivity`. A change to the program
//! does not move the kernel.
//!
//! The kernel is a small register interpreter over 256 KiB, branchy and
//! load-heavy like the simulator. How much a call slows with it depends
//! on what the call does, so each workload has its own exponent, the
//! measured slope of the log of its pass (or segment) times against the
//! log of the kernel's (see `Kind::host_sensitivity`). Of the other
//! kernels tried, pointer chases over 0.5-3 MiB tracked the program less
//! well: their times also depended on how much of their memory the
//! preceding segment had evicted.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time at nominal host speed (its usual time in the fast
/// state of the reference host, a 2-CPU Xeon VM at 2.0 GHz).
pub const NOMINAL_S: f64 = 0.0029;

/// Interpreted instructions per measurement.
const STEPS: u32 = 1_500_000;
/// Words of interpreter memory (256 KiB).
const MEM_WORDS: usize = 1 << 16;
/// Instructions in the interpreted program.
const PROG_LEN: usize = 256;

/// A call timed by [`HostClock::time`].
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub start: Instant,
    pub end: Instant,
    /// `NOMINAL_S` over the mean of the kernel times just before and just
    /// after the call, to the power of the clock's sensitivity.
    pub scale: f64,
}

impl Timed {
    /// The call's host wall.
    pub fn raw_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// The call's wall at nominal host speed.
    pub fn nominal_s(&self) -> f64 {
        self.raw_s() * self.scale
    }
}

/// The reference kernel's memory and program, its last time, and the
/// exponent that turns its slowdown into the timed calls' slowdown.
pub struct HostClock {
    mem: Vec<u32>,
    prog: Vec<u32>,
    last_s: f64,
    sensitivity: f64,
}

impl HostClock {
    pub fn new(sensitivity: f64) -> HostClock {
        // A fixed LCG, so every run interprets the same program.
        let mut x: u32 = 0x2545_F491;
        let mut next = || {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            x
        };
        let prog = (0..PROG_LEN).map(|_| next()).collect();
        let mem = (0..MEM_WORDS).map(|_| next()).collect();
        let mut clock = HostClock {
            mem,
            prog,
            last_s: NOMINAL_S,
            sensitivity,
        };
        clock.last_s = clock.measure();
        clock
    }

    /// Run `f`, then the kernel. Successive calls share the kernel run
    /// between them, so each call is bracketed by one before and one after.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let after = self.measure();
        let scale = (NOMINAL_S / ((self.last_s + after) / 2.0)).powf(self.sensitivity);
        self.last_s = after;
        (out, Timed { start, end, scale })
    }

    /// Time one run of the kernel, in seconds.
    fn measure(&mut self) -> f64 {
        let start = Instant::now();
        black_box(self.interpret(black_box(STEPS)));
        start.elapsed().as_secs_f64()
    }

    fn interpret(&mut self, steps: u32) -> u32 {
        let mask = MEM_WORDS - 1;
        let mut r = [1u32, 2, 3, 5, 7, 11, 13, 17];
        let mut pc = 0usize;
        for _ in 0..steps {
            let ins = self.prog[pc];
            let (d, s, imm) = ((ins >> 3 & 7) as usize, (ins >> 6 & 7) as usize, ins >> 9);
            pc = (pc + 1) % PROG_LEN;
            match ins & 7 {
                0 => r[d] = r[d].wrapping_add(r[s]),
                1 => r[d] ^= r[s].rotate_left(imm & 31),
                2 => r[d] = self.mem[r[s] as usize & mask],
                3 => self.mem[(r[d] ^ imm) as usize & mask] = r[s],
                4 => r[d] = r[d].wrapping_mul(r[s] | 1),
                5 => {
                    if r[s] & 1 == 0 {
                        pc = imm as usize % PROG_LEN;
                    }
                }
                6 => r[d] = r[s] >> (imm & 7),
                _ => r[d] = r[s].wrapping_add(imm),
            }
        }
        r.iter().fold(0, |a, &v| a ^ v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_scale_brackets_the_call() {
        let (mut a, mut b) = (HostClock::new(1.5), HostClock::new(1.5));
        assert_eq!(a.interpret(10_000), b.interpret(10_000));
        let before = a.last_s;
        let (out, t) = a.time(|| 7);
        assert_eq!(out, 7);
        assert!(t.end >= t.start && t.scale > 0.0);
        let expected = (NOMINAL_S / ((before + a.last_s) / 2.0)).powf(1.5);
        assert!((t.scale - expected).abs() < 1e-12);
        assert!((t.nominal_s() - t.raw_s() * t.scale).abs() < 1e-12);
    }
}
