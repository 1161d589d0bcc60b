//! **E7 — the bottom line**: no-op fractions, cycles per instruction, and
//! sustained MIPS.
//!
//! *"Simulations of our large Pascal benchmarks show that 15.6% of all
//! instructions are no-ops due to unused branch delays or other pipeline
//! interlocks that cannot be optimized away. For Lisp, this number
//! increases slightly to 18.3% ... When the memory system overhead is
//! included (delays from Icache and Ecache misses), the average
//! instruction requires about 1.7 cycles meaning MIPS-X should have a
//! sustained throughput above 11 MIPs."*

use mipsx_core::{MachineConfig, RunStats};
use mipsx_mem::EcacheConfig;
use mipsx_reorg::{BranchScheme, Reorganizer};
use mipsx_workloads::calibration;
use mipsx_workloads::synth::{generate, SynthConfig};

use crate::{Row, SEEDS};

/// Aggregate over one workload class.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassResult {
    /// Fraction of completed instructions that are no-ops.
    pub nop_fraction: f64,
    /// Cycles per instruction including all memory stalls.
    pub cpi: f64,
    /// Sustained MIPS at the 20 MHz design clock.
    pub sustained_mips: f64,
    /// Average cycles per branch.
    pub cycles_per_branch: f64,
}

/// The experiment's full result.
#[derive(Clone, Copy, Debug)]
pub struct CpiResult {
    /// Pascal-like workload numbers.
    pub pascal: ClassResult,
    /// Lisp-like workload numbers.
    pub lisp: ClassResult,
}

impl CpiResult {
    /// Report rows.
    pub fn report_rows(&self) -> Vec<Row> {
        vec![
            Row {
                label: "no-op fraction, Pascal-like".into(),
                paper: Some(calibration::PASCAL_NOP_FRACTION),
                measured: self.pascal.nop_fraction,
            },
            Row {
                label: "no-op fraction, Lisp-like".into(),
                paper: Some(calibration::LISP_NOP_FRACTION),
                measured: self.lisp.nop_fraction,
            },
            Row {
                label: "CPI with memory overhead".into(),
                paper: Some(calibration::OVERALL_CPI),
                measured: self.pascal.cpi,
            },
            Row {
                label: "sustained MIPS @ 20 MHz".into(),
                paper: Some(11.0),
                measured: self.pascal.sustained_mips,
            },
            Row {
                label: "cycles/branch (large benchmarks)".into(),
                paper: Some(calibration::REORG_IMPROVED_CYCLES_PER_BRANCH),
                measured: self.pascal.cycles_per_branch,
            },
        ]
    }
}

fn aggregate(configs: impl Iterator<Item = SynthConfig>) -> ClassResult {
    let scheme = BranchScheme::mipsx();
    // The paper's 1.7 CPI includes external-cache effects measured from
    // traces of 50–270 KB programs, far larger than the synthetic
    // workloads here. Per the substitution rule (DESIGN.md §4), the memory
    // system is scaled with the workload: the Ecache shrinks 64× to match
    // the ~64× smaller footprint, preserving the fits/thrashes behaviour
    // the full-size hierarchy had at full scale. The on-chip Icache is the
    // real 512-word design (code footprints here genuinely exceed it).
    let machine = MachineConfig {
        ecache: EcacheConfig {
            size_words: 1024,
            ..EcacheConfig::mipsx()
        },
        mem_latency: 9,
        ..MachineConfig::mipsx()
    };
    let reorg = Reorganizer::new(scheme);
    let mut total = RunStats::default();
    for cfg in configs {
        let (program, _) = reorg.reorganize(&generate(cfg).raw).expect("reorganize");
        total.merge(&super::run_lowered(&program, scheme, machine));
    }
    ClassResult {
        nop_fraction: total.nop_fraction(),
        cpi: total.cpi(),
        sustained_mips: total.sustained_mips(calibration::CLOCK_MHZ),
        cycles_per_branch: total.cycles_per_branch(),
    }
}

/// Run the experiment.
pub fn run() -> CpiResult {
    // Short loop visits (low trip counts) keep the instruction cache under
    // realistic pressure: large programs revisit far more distinct code
    // between loop repetitions than a small synthetic can.
    let scale = |mut cfg: SynthConfig| {
        cfg.trip_count = 4;
        cfg.with_code_scale(14, 6)
    };
    CpiResult {
        pascal: aggregate(SEEDS.iter().map(|&s| scale(SynthConfig::pascal_like(s)))),
        lisp: aggregate(SEEDS.iter().map(|&s| scale(SynthConfig::lisp_like(s)))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_fractions_match_the_paper_shape() {
        let r = run();
        assert!(
            r.lisp.nop_fraction > r.pascal.nop_fraction,
            "Lisp must out-nop Pascal: {:?}",
            r
        );
        assert!(
            (r.pascal.nop_fraction - calibration::PASCAL_NOP_FRACTION).abs() < 0.06,
            "Pascal no-op fraction {:.3} too far from 15.6%",
            r.pascal.nop_fraction
        );
        assert!(
            (r.lisp.nop_fraction - calibration::LISP_NOP_FRACTION).abs() < 0.06,
            "Lisp no-op fraction {:.3} too far from 18.3%",
            r.lisp.nop_fraction
        );
    }

    #[test]
    fn cpi_and_mips_land_near_the_paper() {
        let r = run();
        assert!(
            (r.pascal.cpi - calibration::OVERALL_CPI).abs() < 0.4,
            "CPI {:.3} too far from 1.7",
            r.pascal.cpi
        );
        assert!(
            r.pascal.sustained_mips > calibration::SUSTAINED_MIPS_FLOOR * 0.8,
            "sustained MIPS {:.1} below the paper's floor",
            r.pascal.sustained_mips
        );
    }
}
