//! Shared command-line front end for the `mipsx` binary.
//!
//! Every subcommand used to hand-roll the same `while let Some(opt) =
//! it.next()` loop — with the same two bugs waiting to happen: a flag at
//! the end of the line silently swallowing its missing value, and a typo'd
//! value silently falling back to the default. This module centralizes the
//! loop: a subcommand declares its flags once ([`SUBCOMMAND_FLAGS`]), and
//! lookups are typed and fail loudly.
//!
//! It also holds the one input model every subcommand shares with the
//! sweep engine: [`point_from_flags`] turns the machine flags into a
//! [`SimPoint`], and [`resolve_target`] turns a target argument into the
//! program that point runs, prepared exactly as a sweep job prepares it.
//!
//! ```
//! use mipsx::cli::{flag, parse_args, switch};
//!
//! let args: Vec<String> = ["prog.s", "--cycles", "500", "--regs"]
//!     .iter().map(|s| s.to_string()).collect();
//! let parsed = parse_args(&args, &[flag("--cycles"), switch("--regs")])?;
//! assert_eq!(parsed.positionals, ["prog.s"]);
//! assert_eq!(parsed.parsed_or("--cycles", 10u64)?, 500);
//! assert!(parsed.has("--regs"));
//! # Ok::<(), mipsx::cli::ArgError>(())
//! ```

use std::fmt;

use mipsx_asm::{assemble, Program};
use mipsx_core::{InterlockPolicy, MachineConfig};
use mipsx_exec::EngineKind;
use mipsx_explore::image::raw_program;
use mipsx_explore::{SimPoint, Workload};
use mipsx_reorg::{BranchScheme, Reorganizer};
use mipsx_workloads::{find_kernel, kernel_names};

/// A flag-parsing error. `Display` renders the user-facing message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ArgError {
    /// An option that is not in the subcommand's flag set.
    UnknownFlag(String),
    /// A value-taking flag appeared as the last argument.
    MissingValue(String),
    /// A flag's value failed to parse.
    InvalidValue {
        /// The flag.
        flag: String,
        /// The offending value.
        value: String,
        /// What was expected (e.g. `u64`).
        expected: &'static str,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnknownFlag(flag) => write!(f, "unknown option {flag}"),
            ArgError::MissingValue(flag) => write!(f, "option {flag} needs a value"),
            ArgError::InvalidValue {
                flag,
                value,
                expected,
            } => write!(
                f,
                "option {flag}: bad value {value:?} (expected {expected})"
            ),
        }
    }
}

impl std::error::Error for ArgError {}

/// One declared flag.
#[derive(Clone, Copy, Debug)]
pub struct FlagSpec {
    /// The flag, including the leading dashes.
    pub name: &'static str,
    /// Whether the flag consumes the next argument as its value.
    pub takes_value: bool,
}

/// Declare a value-taking flag (`--cycles N`).
pub const fn flag(name: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        takes_value: true,
    }
}

/// Declare a boolean switch (`--regs`).
pub const fn switch(name: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        takes_value: false,
    }
}

/// The parsed argument list.
#[derive(Clone, Debug, Default)]
pub struct ParsedArgs {
    /// `(flag, value)` occurrences of value-taking flags, in order.
    pub values: Vec<(&'static str, String)>,
    /// Switches seen.
    pub switches: Vec<&'static str>,
    /// Arguments that are not flags (targets, file paths).
    pub positionals: Vec<String>,
}

impl ParsedArgs {
    /// Whether `name` (switch or value flag) appeared.
    pub fn has(&self, name: &str) -> bool {
        self.switches.contains(&name) || self.values.iter().any(|(n, _)| *n == name)
    }

    /// The last value given for `name`, if any.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Every value given for `name`, in order (for repeatable flags).
    pub fn values_of<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.values
            .iter()
            .filter(move |(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parse the last value of `name` as a `T`, or return `default` when
    /// the flag is absent. Unlike the old hand-rolled loops, an
    /// *unparsable* value is an error, not a silent default.
    pub fn parsed_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::InvalidValue {
                flag: name.to_owned(),
                value: v.to_owned(),
                expected: std::any::type_name::<T>()
                    .rsplit("::")
                    .next()
                    .unwrap_or("value"),
            }),
        }
    }
}

/// Parse `args` against the declared `spec`. Arguments starting with `--`
/// must be declared flags; everything else collects into
/// [`ParsedArgs::positionals`].
pub fn parse_args(args: &[String], spec: &[FlagSpec]) -> Result<ParsedArgs, ArgError> {
    let mut parsed = ParsedArgs::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            parsed.positionals.push(arg.clone());
            continue;
        }
        let Some(decl) = spec.iter().find(|f| f.name == arg.as_str()) else {
            return Err(ArgError::UnknownFlag(arg.clone()));
        };
        if decl.takes_value {
            let Some(value) = it.next() else {
                return Err(ArgError::MissingValue(arg.clone()));
            };
            parsed.values.push((decl.name, value.clone()));
        } else {
            parsed.switches.push(decl.name);
        }
    }
    Ok(parsed)
}

/// Every subcommand that takes flags, with the flags it declares.
pub const SUBCOMMAND_FLAGS: &[(&str, &[FlagSpec])] = &[
    (
        "run",
        &[
            flag("--cycles"),
            flag("--slots"),
            flag("--engine"),
            switch("--trust"),
            switch("--ideal"),
            switch("--regs"),
        ],
    ),
    (
        "trace",
        &[
            flag("--cycles"),
            flag("--slots"),
            flag("--diagram"),
            flag("--jsonl"),
            flag("--from-cycle"),
        ],
    ),
    (
        "soak",
        &[
            flag("--runs"),
            flag("--seed"),
            flag("--faults"),
            flag("--fault-count"),
            flag("--cycles"),
            flag("--snap-dir"),
        ],
    ),
    (
        "lint",
        &[
            switch("--json"),
            switch("--kernels"),
            switch("--timing"),
            flag("--slots"),
        ],
    ),
    (
        "analyze",
        &[
            switch("--json"),
            switch("--kernels"),
            switch("--differential"),
            flag("--slots"),
            flag("--cycles"),
        ],
    ),
    (
        "sweep",
        &[
            flag("--grid"),
            flag("--workload"),
            flag("--fault"),
            flag("--base"),
            flag("--engine"),
            flag("--cycles"),
            flag("--threads"),
            flag("--store"),
            switch("--json"),
            switch("--csv"),
            switch("--no-cache"),
            flag("--bench"),
            flag("--metrics"),
            switch("--timings"),
            flag("--journal"),
            flag("--snapshot-every"),
            switch("--resume"),
        ],
    ),
    (
        "profile",
        &[
            flag("--grid"),
            flag("--workload"),
            flag("--fault"),
            flag("--base"),
            flag("--engine"),
            flag("--cycles"),
            flag("--threads"),
            flag("--slots"),
            switch("--ideal"),
            flag("--store"),
            flag("--metrics"),
        ],
    ),
    (
        "snapshot save",
        &[
            flag("--cycles"),
            flag("--slots"),
            flag("--faults"),
            flag("--out"),
        ],
    ),
    ("snapshot restore", &[flag("--cycles")]),
];

/// The flags `subcommand` declares (none for a name not in
/// [`SUBCOMMAND_FLAGS`]).
pub fn flags_of(subcommand: &str) -> &'static [FlagSpec] {
    SUBCOMMAND_FLAGS
        .iter()
        .find(|(name, _)| *name == subcommand)
        .map_or(&[], |(_, spec)| spec)
}

/// The simulation point the machine flags describe:
///
/// - `--slots <1|2>` (default 2): the machine's branch delay slots *and*
///   the squash-optional scheme programs are reorganized for, so the
///   schedule always matches the pipeline;
/// - `--ideal`: [`MachineConfig::cache_ideal`] instead of the MIPS-X board;
/// - `--trust`: no interlock checking (model the silicon);
/// - `--engine <interp|block|checked>` (default interp): the backend.
///
/// A subcommand that does not declare a flag never sees it, so every
/// subcommand builds its point here. The result passes
/// [`SimPoint::validate`], whose message is the error otherwise.
pub fn point_from_flags(parsed: &ParsedArgs) -> Result<SimPoint, String> {
    let slots = parsed
        .parsed_or("--slots", 2usize)
        .map_err(|e| e.to_string())?;
    let mut cfg = if parsed.has("--ideal") {
        MachineConfig::cache_ideal()
    } else {
        MachineConfig::mipsx()
    };
    if parsed.has("--trust") {
        cfg.interlock = InterlockPolicy::Trust;
    }
    let engine = match parsed.value("--engine") {
        Some(kind) => EngineKind::parse(kind).map_err(|e| format!("--engine: {e}"))?,
        None => EngineKind::Interp,
    };
    let scheme = BranchScheme {
        slots,
        ..BranchScheme::mipsx()
    };
    let point = SimPoint::new(cfg, scheme).with_engine(engine);
    point.validate().map_err(|e| e.to_string())?;
    Ok(point)
}

/// The program a target argument names, prepared for `point`:
///
/// - a built-in kernel name (`fib_recursive`) or a sweep workload id
///   (`kernel:<name>`, `synth:<pascal|lisp|tiny>:<seed>`,
///   `stream:<words>x<reps>`) is generated and reorganized under
///   `point.scheme`, exactly as a sweep job prepares it;
/// - anything else is an assembly file, assembled as written.
///
/// `trace:` ids are instruction-address traces with no program, so they
/// are an error.
pub fn resolve_target(arg: &str, point: &SimPoint) -> Result<Program, String> {
    let workload = if find_kernel(arg).is_some() {
        Workload::Kernel(arg.to_owned())
    } else if matches!(
        arg.split_once(':'),
        Some(("kernel" | "synth" | "trace" | "stream", _))
    ) {
        Workload::parse(arg).map_err(|e| e.to_string())?
    } else {
        let source = std::fs::read_to_string(arg).map_err(|e| {
            format!(
                "{arg}: {e} (not a readable file; known kernels: {})",
                kernel_names().join(", ")
            )
        })?;
        return assemble(&source).map_err(|e| format!("{arg}: {e}"));
    };
    let raw = raw_program(&workload).map_err(|e| e.to_string())?;
    Reorganizer::new(point.scheme)
        .reorganize(&raw)
        .map(|(program, _)| program)
        .map_err(|e| format!("{arg} [{}]: {e}", point.scheme))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let e = parse_args(&argv(&["--bogus"]), &[flag("--cycles")]).unwrap_err();
        assert_eq!(e, ArgError::UnknownFlag("--bogus".into()));
        assert_eq!(e.to_string(), "unknown option --bogus");
    }

    #[test]
    fn missing_value_is_an_error() {
        let e = parse_args(&argv(&["--cycles"]), &[flag("--cycles")]).unwrap_err();
        assert_eq!(e, ArgError::MissingValue("--cycles".into()));
        assert_eq!(e.to_string(), "option --cycles needs a value");
    }

    #[test]
    fn invalid_value_is_an_error_not_a_silent_default() {
        let parsed = parse_args(&argv(&["--cycles", "lots"]), &[flag("--cycles")]).unwrap();
        let e = parsed.parsed_or("--cycles", 7u64).unwrap_err();
        assert!(
            matches!(&e, ArgError::InvalidValue { flag, value, .. }
                if flag == "--cycles" && value == "lots"),
            "{e:?}"
        );
        assert!(e.to_string().contains("u64"), "{e}");
    }

    #[test]
    fn values_switches_and_positionals_separate() {
        let parsed = parse_args(
            &argv(&["prog.s", "--cycles", "500", "--regs", "extra"]),
            &[flag("--cycles"), switch("--regs")],
        )
        .unwrap();
        assert_eq!(parsed.positionals, ["prog.s", "extra"]);
        assert_eq!(parsed.parsed_or("--cycles", 0u64).unwrap(), 500);
        assert!(parsed.has("--regs"));
        assert!(!parsed.has("--trust"));
        assert_eq!(parsed.parsed_or("--slots", 2usize).unwrap(), 2);
    }

    #[test]
    fn repeated_flags_keep_every_value_and_last_wins_for_scalar() {
        let parsed = parse_args(
            &argv(&[
                "--grid", "a=1", "--grid", "b=2", "--cycles", "1", "--cycles", "2",
            ]),
            &[flag("--grid"), flag("--cycles")],
        )
        .unwrap();
        let grids: Vec<&str> = parsed.values_of("--grid").collect();
        assert_eq!(grids, ["a=1", "b=2"]);
        assert_eq!(parsed.parsed_or("--cycles", 0u64).unwrap(), 2);
    }
}
