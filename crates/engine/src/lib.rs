//! Basic-block superop execution engine for the MIPS-X model.
//!
//! The cycle-accurate [`Machine`] stepper pays the full five-stage pipeline
//! dance for every instruction. On the **cache-ideal** configuration
//! (`MachineConfig::cache_ideal()`), fault-free, that dance is statically
//! predictable: the static analyzer's [`BlockSummary`] facts pin down every
//! cycle, squash, nop, and stall bucket of a block visit in closed form —
//! the property the verify crate's static/dynamic differential proves
//! exactly. This crate exploits that proof in the other direction: instead
//! of *checking* the stepper against the closed forms, it *replaces* the
//! stepper with them wherever they apply, and falls back to the stepper
//! everywhere they don't.
//!
//! # Execution model
//!
//! [`BlockEngine::new`] discovers basic blocks from the verifier's CFG over
//! the machine's decoded image and compiles each into a straight-line
//! superop chain (see `compile`). At run time the engine executes
//! block-at-a-time: retire the block's ops eagerly against architectural
//! state, apply the pre-computed per-visit `RunStats` delta for the taken
//! branch outcome, jump to the successor. One bounds check and one match
//! per instruction — no pipeline slots, no bypass search, no cache model.
//!
//! # The cycle-splice contract
//!
//! Fast execution must be *invisible* in the books. The handshake with the
//! stepper ([`Machine::enter_block_region`] / `exit_block_region`) charges
//! the five-cycle pipeline-fill ramp on entry and refunds it on a
//! fallback exit — the demoted stepper re-pays the same ramp as it
//! refills, so total `cycles` across any mix of fast regions and stepper
//! regions equals a contiguous stepper run **exactly**. On a fallback exit
//! the engine also seeds the PC shift chain with the last three fetch
//! records, reproducing what the pipeline's own advances would have
//! written, so a later exception restart sequence replays the right PCs.
//!
//! # When the engine refuses
//!
//! Anything outside the closed-form world demotes to the stepper — at run
//! granularity (entry blockers: tracing sinks, non-ideal cache timing,
//! attached coprocessors, live fault plans, pending interrupts, enabled
//! overflow traps, user mode) or at block granularity (fallback ops,
//! load-delay hazards, halt shadows, irregular regions, cold code). Every
//! demotion is tallied by [`FallbackCause`] in [`EngineStats`].
//!
//! # Self-modifying code
//!
//! The engine compiles from the machine's *memory*, not the original
//! program, and watches every store: a hit inside a compiled block (or a
//! halt block's fetch shadow) marks the cache dirty, and the next block
//! boundary recompiles the image — mirroring the `DecodedMem`
//! invalidation protocol the interpreter uses. Stores that land fewer
//! than four words ahead of their own execution point — inside the
//! pipeline shadow a real fetch would already have passed — take effect
//! one block earlier than on silicon; the same caveat applies to the
//! interpreter's decode cache.
//!
//! [`BlockSummary`]: mipsx_verify::BlockSummary

mod compile;

use std::sync::Arc;

use compile::{CodeCache, Exit, Op};
use mipsx_asm::Program;
use mipsx_core::{FaultPlan, Machine, MachineConfig, NullSink, RunError, RunStats, TraceSink};
use mipsx_isa::Mode;
use mipsx_telemetry::Telemetry;

/// Why the engine handed control (back) to the cycle-accurate stepper.
///
/// Entry blockers (checked once per run) come first, then block-granular
/// causes (checked per dispatch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FallbackCause {
    /// A tracing sink is attached; per-cycle events require the stepper.
    Traced,
    /// Cache/memory timing is not ideal; stall cycles require the models.
    NonIdealConfig,
    /// Coprocessors are attached; their FSMs tick per cycle.
    Coprocessor,
    /// A fault plan has events left to inject at exact cycle numbers.
    FaultPlan,
    /// An interrupt or NMI line is live.
    InterruptPending,
    /// Overflow traps are enabled; a trapping add needs the exception path.
    OverflowTrap,
    /// The CPU is in user mode; privilege checks belong to the stepper.
    UserMode,
    /// The pipeline holds in-flight state (mid-run handoff).
    NotQuiescent,
    /// Control reached an address that heads no compiled block.
    ColdCode,
    /// The block is part of an irregular region (runoff, window-landing
    /// targets, control transfers inside delay windows).
    IrregularBlock,
    /// The block contains an instruction outside the fast op set.
    FallbackOp,
    /// An in-block distance-1 load-use pair (stale read under `Trust`,
    /// run error under `Detect`).
    LoadDelay,
    /// The block's executed tail feeds a load-delay hazard into a dynamic
    /// successor's head.
    EntryHazard,
    /// A word in the post-`halt` fetch shadow is not provably inert.
    HaltShadow,
    /// The next block would overrun the caller's cycle budget.
    CycleBudget,
}

impl FallbackCause {
    /// Every cause, in display order.
    pub const ALL: [FallbackCause; 15] = [
        FallbackCause::Traced,
        FallbackCause::NonIdealConfig,
        FallbackCause::Coprocessor,
        FallbackCause::FaultPlan,
        FallbackCause::InterruptPending,
        FallbackCause::OverflowTrap,
        FallbackCause::UserMode,
        FallbackCause::NotQuiescent,
        FallbackCause::ColdCode,
        FallbackCause::IrregularBlock,
        FallbackCause::FallbackOp,
        FallbackCause::LoadDelay,
        FallbackCause::EntryHazard,
        FallbackCause::HaltShadow,
        FallbackCause::CycleBudget,
    ];

    /// Dense index for counter arrays.
    #[inline]
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&c| c == self).unwrap_or(0)
    }

    /// Stable kebab-case label for telemetry counters and reports.
    pub fn label(self) -> &'static str {
        match self {
            FallbackCause::Traced => "traced",
            FallbackCause::NonIdealConfig => "non-ideal-config",
            FallbackCause::Coprocessor => "coprocessor",
            FallbackCause::FaultPlan => "fault-plan",
            FallbackCause::InterruptPending => "interrupt-pending",
            FallbackCause::OverflowTrap => "overflow-trap",
            FallbackCause::UserMode => "user-mode",
            FallbackCause::NotQuiescent => "not-quiescent",
            FallbackCause::ColdCode => "cold-code",
            FallbackCause::IrregularBlock => "irregular-block",
            FallbackCause::FallbackOp => "fallback-op",
            FallbackCause::LoadDelay => "load-delay",
            FallbackCause::EntryHazard => "entry-hazard",
            FallbackCause::HaltShadow => "halt-shadow",
            FallbackCause::CycleBudget => "cycle-budget",
        }
    }
}

/// Execution counters kept by the engine (separate from the machine's
/// architectural `RunStats`, which the engine maintains exactly).
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Blocks compiled over the engine's lifetime (recompiles included).
    pub blocks_compiled: u64,
    /// Compiled blocks carrying a static fallback verdict (current image).
    pub fallback_blocks: u64,
    /// Whole-image recompiles triggered by self-modifying stores.
    pub recompiles: u64,
    /// Blocks dispatched on the fast path.
    pub block_visits: u64,
    /// Cycles accounted by the fast path.
    pub fast_cycles: u64,
    /// Instructions retired by the fast path.
    pub fast_instructions: u64,
    /// Demotions to the stepper, by cause.
    pub fallback_exits: [u64; FallbackCause::ALL.len()],
}

impl EngineStats {
    /// Total demotions across all causes.
    pub fn total_fallbacks(&self) -> u64 {
        self.fallback_exits.iter().sum()
    }

    /// Non-zero fallback tallies as `(label, count)` pairs.
    pub fn fallback_breakdown(&self) -> Vec<(&'static str, u64)> {
        FallbackCause::ALL
            .iter()
            .filter_map(|&c| {
                let n = self.fallback_exits[c.index()];
                (n > 0).then(|| (c.label(), n))
            })
            .collect()
    }
}

/// Ring of the last ≤3 fetched `(pc, killed)` records — the PC-chain seed
/// handed to [`Machine::exit_block_region`] on demotion.
#[derive(Clone, Copy, Debug, Default)]
struct Recent {
    buf: [(u32, bool); 3],
    len: usize,
}

impl Recent {
    #[inline]
    fn push(&mut self, e: (u32, bool)) {
        if self.len < 3 {
            self.buf[self.len] = e;
            self.len += 1;
        } else {
            self.buf.rotate_left(1);
            self.buf[2] = e;
        }
    }

    fn as_slice(&self) -> &[(u32, bool)] {
        &self.buf[..self.len]
    }
}

/// The block-at-a-time execution engine. Construct once per program +
/// machine configuration; run against a freshly loaded [`Machine`].
pub struct BlockEngine {
    origin: u32,
    entry: u32,
    image_words: u32,
    cfg: MachineConfig,
    /// Shared immutable compiled image; a recompile swaps in a fresh `Arc`,
    /// so clones sharing an old image are unaffected.
    code: Arc<CodeCache>,
    /// A watched store landed since the last (re)compile.
    dirty: bool,
    recent: Recent,
    stats: EngineStats,
    telemetry: Telemetry,
}

impl BlockEngine {
    /// Compile `program`'s image as currently held in `machine`'s memory.
    /// (Reading memory rather than the program covers `load_at` patches
    /// applied after assembly.)
    pub fn new(program: &Program, machine: &Machine) -> BlockEngine {
        let mut engine = BlockEngine::empty(program, machine.config());
        engine.compile_from(machine);
        engine
    }

    /// Compile `program`'s image as assembled, without a [`Machine`].
    ///
    /// This is the prepared-image path: a sweep compiles one engine per
    /// (image, config) pair up front and hands each job a
    /// [`clone_template`](BlockEngine::clone_template) of it. The result is
    /// only valid for a machine that runs `program` verbatim — `load_at`
    /// patches applied after loading are covered by the self-modify watch
    /// (the store marks the cache dirty and forces a recompile from the
    /// machine's memory), not by this constructor.
    pub fn from_program(program: &Program, cfg: &MachineConfig) -> BlockEngine {
        let mut engine = BlockEngine::empty(program, cfg);
        let _span = engine.telemetry.span("engine.compile");
        engine.install(compile::compile(
            program.origin,
            program.entry,
            &program.words,
            cfg,
        ));
        engine
    }

    /// A fresh engine sharing this one's compiled image: zeroed run
    /// counters, clean self-modify state, no telemetry. Cloning is O(1) —
    /// the [`CodeCache`] rides behind an `Arc` — which is what lets one
    /// compiled template serve every job of a sweep grid.
    pub fn clone_template(&self) -> BlockEngine {
        BlockEngine {
            origin: self.origin,
            entry: self.entry,
            image_words: self.image_words,
            cfg: self.cfg,
            code: Arc::clone(&self.code),
            dirty: false,
            recent: Recent::default(),
            stats: EngineStats {
                fallback_blocks: self.stats.fallback_blocks,
                ..EngineStats::default()
            },
            telemetry: Telemetry::disabled(),
        }
    }

    fn empty(program: &Program, cfg: &MachineConfig) -> BlockEngine {
        BlockEngine {
            origin: program.origin,
            entry: program.entry,
            image_words: program.words.len() as u32,
            cfg: *cfg,
            code: Arc::new(CodeCache::empty(program.origin)),
            dirty: false,
            recent: Recent::default(),
            stats: EngineStats::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry handle; compile spans and fallback counters are
    /// recorded when it is enabled.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Engine-side counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    fn compile_from(&mut self, m: &Machine) {
        let _span = self.telemetry.span("engine.compile");
        let words: Vec<u32> = (0..self.image_words)
            .map(|i| m.read_word(self.origin.wrapping_add(i)))
            .collect();
        self.install(compile::compile(self.origin, self.entry, &words, &self.cfg));
    }

    fn install(&mut self, code: CodeCache) {
        self.code = Arc::new(code);
        self.dirty = false;
        self.stats.blocks_compiled += self.code.blocks.len() as u64;
        self.stats.fallback_blocks = self
            .code
            .blocks
            .iter()
            .filter(|b| b.fallback.is_some())
            .count() as u64;
        if self.telemetry.is_enabled() {
            self.telemetry
                .count("engine.blocks_compiled", self.code.blocks.len() as u64);
        }
    }

    /// Run until halt or `max_cycles`, no tracing, no fault injection.
    pub fn run(&mut self, m: &mut Machine, max_cycles: u64) -> Result<RunStats, RunError> {
        self.run_with_faults(m, max_cycles, &mut NullSink, &mut FaultPlan::none())
    }

    /// Run with a trace sink and a fault plan. An enabled sink or a
    /// non-exhausted plan demotes the whole run to the stepper, which makes
    /// traced output (JSONL included) byte-identical to a plain
    /// [`Machine::run_with_faults`] call.
    pub fn run_with_faults<S: TraceSink>(
        &mut self,
        m: &mut Machine,
        max_cycles: u64,
        sink: &mut S,
        plan: &mut FaultPlan,
    ) -> Result<RunStats, RunError> {
        if m.halted() {
            return Err(RunError::AlreadyHalted);
        }
        if let Some(cause) = self.entry_blocker::<S>(m, plan) {
            self.note_fallback(cause);
            return interpret(m, max_cycles, sink, plan, max_cycles);
        }
        if !m.enter_block_region() {
            self.note_fallback(FallbackCause::NotQuiescent);
            return interpret(m, max_cycles, sink, plan, max_cycles);
        }
        self.recent = Recent::default();
        let start_cycles = m.stats().cycles; // includes the entry ramp charge

        loop {
            if m.halted() {
                return Ok(*m.stats());
            }
            if self.dirty {
                self.stats.recompiles += 1;
                if self.telemetry.is_enabled() {
                    self.telemetry.count("engine.recompiles", 1);
                }
                self.compile_from(m);
            }
            let pc = m.pc();
            let Some(bi) = self.code.block_at(pc) else {
                return self.demote(
                    m,
                    max_cycles,
                    start_cycles,
                    sink,
                    plan,
                    FallbackCause::ColdCode,
                );
            };
            if let Some(cause) = self.code.blocks[bi].fallback {
                return self.demote(m, max_cycles, start_cycles, sink, plan, cause);
            }
            let len = u64::from(self.code.blocks[bi].len);
            // A contiguous run retires this block's last drain at relative
            // cycle `work + ramp + len`; past the budget, it would stop at
            // `CycleLimit` first.
            let ramp = Machine::PIPE_FILL_CYCLES;
            if self.stats_used(m, start_cycles) + ramp + len > max_cycles {
                return self.demote(
                    m,
                    max_cycles,
                    start_cycles,
                    sink,
                    plan,
                    FallbackCause::CycleBudget,
                );
            }
            self.execute(m, bi);
        }
    }

    /// Fast cycles consumed since region entry (ramp charge excluded).
    #[inline]
    fn stats_used(&self, m: &Machine, start_cycles: u64) -> u64 {
        m.stats().cycles - start_cycles
    }

    /// Run-granular blockers, checked before entering the fast region.
    fn entry_blocker<S: TraceSink>(&self, m: &Machine, plan: &FaultPlan) -> Option<FallbackCause> {
        if S::ENABLED {
            return Some(FallbackCause::Traced);
        }
        let cfg = &self.cfg;
        if cfg.icache.miss_penalty != 0
            || cfg.ecache.late_miss_overhead != 0
            || cfg.mem_latency != 0
        {
            return Some(FallbackCause::NonIdealConfig);
        }
        if m.has_coprocessors() {
            return Some(FallbackCause::Coprocessor);
        }
        if !plan.exhausted() {
            return Some(FallbackCause::FaultPlan);
        }
        if m.interrupt_pending() {
            return Some(FallbackCause::InterruptPending);
        }
        if m.cpu().psw.overflow_trap_enabled() {
            return Some(FallbackCause::OverflowTrap);
        }
        if m.cpu().psw.mode() == Mode::User {
            return Some(FallbackCause::UserMode);
        }
        None
    }

    fn note_fallback(&mut self, cause: FallbackCause) {
        self.stats.fallback_exits[cause.index()] += 1;
        if self.telemetry.is_enabled() {
            self.telemetry
                .count(&format!("engine.fallback.{}", cause.label()), 1);
        }
    }

    /// Leave the fast region (refunding the ramp charge and seeding the PC
    /// chain) and hand the remaining budget to the stepper.
    fn demote<S: TraceSink>(
        &mut self,
        m: &mut Machine,
        max_cycles: u64,
        start_cycles: u64,
        sink: &mut S,
        plan: &mut FaultPlan,
        cause: FallbackCause,
    ) -> Result<RunStats, RunError> {
        self.note_fallback(cause);
        // Fast work on the books (ramp excluded); the block-dispatch budget
        // check guarantees `used + ramp <= max_cycles`, and the demoted
        // stepper re-pays the ramp out of the remainder as it refills.
        let used = self.stats_used(m, start_cycles);
        let pc = m.pc();
        m.exit_block_region(pc, self.recent.as_slice());
        interpret(m, max_cycles - used, sink, plan, max_cycles)
    }

    /// Execute one compiled (non-fallback) block against architectural
    /// state and apply its pre-resolved accounting.
    fn execute(&mut self, m: &mut Machine, bi: usize) {
        enum Next {
            Goto(u32),
            Stop(u32),
        }
        let code: &CodeCache = &self.code;
        let b = &code.blocks[bi];
        let dirty = &mut self.dirty;
        for &op in b.body.iter() {
            exec_op(code, m, dirty, op);
        }
        let (taken, next) = match b.exit {
            Exit::Fall { next } => (false, Next::Goto(next)),
            Exit::Halt { final_pc } => (false, Next::Stop(final_pc)),
            Exit::Branch {
                cond,
                rs1,
                rs2,
                target,
                fall,
                kills,
            } => {
                // Resolve from pre-window state, as the pipeline does: the
                // condition reads at the resolve stage while the window is
                // still upstream.
                let cpu = m.cpu();
                let t = cond.eval(cpu.reg(rs1), cpu.reg(rs2));
                if !kills[usize::from(t)] {
                    for &op in b.window.iter() {
                        exec_op(code, m, dirty, op);
                    }
                }
                (t, Next::Goto(if t { target } else { fall }))
            }
            Exit::Jump { rs1, rd, imm, link } => {
                // Base read before the link lands (jspci reads rs1 at RF);
                // link committed before the window, which may consume it.
                let base = m.cpu().reg(rs1);
                m.cpu_mut().set_reg(rd, link);
                for &op in b.window.iter() {
                    exec_op(code, m, dirty, op);
                }
                (false, Next::Goto(base.wrapping_add(imm as u32)))
            }
        };
        let o = usize::from(taken);
        let d = &b.delta[o];
        m.stats_mut().merge(d);
        self.stats.block_visits += 1;
        self.stats.fast_cycles += d.cycles;
        self.stats.fast_instructions += d.instructions;
        let tail = &b.tail[o];
        for i in 0..usize::from(tail.len) {
            self.recent.push(tail.entries[i]);
        }
        match next {
            Next::Goto(pc) => m.set_pc(pc),
            Next::Stop(pc) => {
                m.set_pc(pc);
                m.retire_halt();
            }
        }
    }
}

/// Hand a budget to the stepper, remapping its budget error to the
/// caller's original limit.
fn interpret<S: TraceSink>(
    m: &mut Machine,
    budget: u64,
    sink: &mut S,
    plan: &mut FaultPlan,
    caller_limit: u64,
) -> Result<RunStats, RunError> {
    match m.run_with_faults(budget, sink, plan) {
        Err(RunError::CycleLimit { .. }) => Err(RunError::CycleLimit {
            limit: caller_limit,
        }),
        r => r,
    }
}

/// Retire one superop eagerly against architectural state.
#[inline(always)]
fn exec_op(code: &CodeCache, m: &mut Machine, dirty: &mut bool, op: Op) {
    match op {
        Op::Nop => {}
        Op::Compute {
            op,
            rs1,
            rs2,
            rd,
            shamt,
        } => {
            let cpu = m.cpu_mut();
            let a = cpu.reg(rs1);
            let b = cpu.reg(rs2);
            let (v, _overflow, md_out) = op.execute(a, b, shamt, cpu.md);
            cpu.set_reg(rd, v);
            if let Some(md) = md_out {
                cpu.md = md;
            }
        }
        Op::Addi { rs1, rd, imm } => {
            let cpu = m.cpu_mut();
            let v = cpu.reg(rs1).wrapping_add(imm as u32);
            cpu.set_reg(rd, v);
        }
        Op::Ld { rs1, rd, offset } => {
            let addr = m.cpu().reg(rs1).wrapping_add(offset as u32);
            let v = m.read_word(addr);
            m.cpu_mut().set_reg(rd, v);
        }
        Op::St { rs1, rsrc, offset } => {
            let cpu = m.cpu();
            let addr = cpu.reg(rs1).wrapping_add(offset as u32);
            let v = cpu.reg(rsrc);
            m.write_word(addr, v);
            if code.watched(addr) {
                *dirty = true;
            }
        }
        Op::Movfrs { rd, sreg } => {
            let v = m.cpu().special(sreg);
            m.cpu_mut().set_reg(rd, v);
        }
        Op::MovtosMd { rs } => {
            let cpu = m.cpu_mut();
            cpu.md = cpu.reg(rs);
        }
    }
}
