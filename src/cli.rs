//! Shared plumbing for the `cal-*` command-line binaries: the audited
//! exit-code contract, seed parsing, a minimal signal flag for clean
//! SIGINT/SIGTERM shutdown, and the specification table — the built-in
//! specs, `--spec` `.cal` loading, and spec selection by name.
//!
//! Lives in the umbrella crate (not `cal-core`) because it is CLI policy,
//! not formalism: the library reports rich outcomes, the binaries fold
//! them into this one process-level contract.

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cal_core::dsl::{self, SpecDef, SpecFile};
use cal_core::interval::IntervalSpec;
use cal_core::spec::{CaSpec, SeqSpec};
use cal_core::ObjectId;
use cal_specs::dual_stack::DualStackSpec;
use cal_specs::elim_array::ElimArraySpec;
use cal_specs::exchanger::ExchangerSpec;
use cal_specs::kv::KvMapSpec;
use cal_specs::register::{CounterSpec, RegisterSpec};
use cal_specs::snapshot::WriteSnapshotSpec;
use cal_specs::stack::StackSpec;
use cal_specs::sync_queue::SyncQueueSpec;

/// Exit codes, one per distinguishable outcome, shared by `cal-check`,
/// `cal-serve` and `chaos-soak`. Asserted by `tests/cli_exit_codes.rs`
/// and `tests/stream_serve.rs`, documented in the README.
///
/// The verdict was "accepted"/"consistent" (or the run completed clean).
pub const EXIT_ACCEPTED: u8 = 0;
/// The verdict was "rejected"/"violation".
pub const EXIT_REJECTED: u8 = 1;
/// Undecided: budget, deadline, cancellation or window exceeded.
pub const EXIT_UNDECIDED: u8 = 2;
/// Input, parse or checker error (including an exceeded error budget).
pub const EXIT_ERROR: u8 = 3;
/// Command-line usage error.
pub const EXIT_USAGE: u8 = 4;

/// Accepts decimal or `0x`-prefixed hex seeds.
pub fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Installs a SIGINT/SIGTERM handler that sets a process-wide flag
/// instead of killing the process, so long-running binaries (`cal-serve`,
/// `chaos-soak`) can flush their reports and exit under the exit-code
/// contract. Idempotent; a no-op on non-Unix targets (where the flag
/// simply never fires).
pub fn install_shutdown_handler() {
    #[cfg(unix)]
    {
        // Hand-rolled libc binding: the build environment is offline, so
        // no `libc` crate — `signal(2)` is in every libc we target.
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        extern "C" fn on_signal(_signum: i32) {
            SHUTDOWN.store(true, Ordering::SeqCst);
        }
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

/// Whether a shutdown signal has been received since
/// [`install_shutdown_handler`] ran.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Test/embedding hook: raises the shutdown flag as if a signal arrived.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// A specification's kind, which alone decides the checks that apply to
/// it. A sequential spec is the CA-spec whose elements are singletons
/// ([`cal_core::spec::SeqAsCa`]), so it has every reading a CA-spec has,
/// plus the classical and the singleton-interval one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Concurrency-aware: CA-elements may hold several operations.
    Ca,
    /// Sequential: every CA-element is a singleton.
    Seq,
    /// Interval-native: judged on interval points only.
    Interval,
}

/// Receives a selected specification instantiated for one object, typed
/// by its [`Kind`].
pub trait SpecVisitor {
    /// What the visit produces.
    type Output;
    /// A concurrency-aware spec.
    fn ca<S: CaSpec + Send + 'static>(self, spec: S) -> Self::Output;
    /// A sequential spec.
    fn seq<S: SeqSpec + Send + 'static>(self, spec: S) -> Self::Output;
    /// An interval-native spec.
    fn interval<S: IntervalSpec + Send + 'static>(self, spec: S) -> Self::Output;
}

/// The built-in specifications: each name, its kind (the visitor method)
/// and its constructor. `None` for a name that is not built in.
fn visit_builtin<V: SpecVisitor>(name: &str, object: ObjectId, v: V) -> Option<V::Output> {
    Some(match name {
        "exchanger" => v.ca(ExchangerSpec::new(object)),
        "elim-array" => v.ca(ElimArraySpec::new(object)),
        "sync-queue" => v.ca(SyncQueueSpec::new(object)),
        "dual-stack" => v.ca(DualStackSpec::with_timeouts(object)),
        "stack" => v.seq(StackSpec::total(object)),
        "failing-stack" => v.seq(StackSpec::failing(object)),
        "register" => v.seq(RegisterSpec::new(object)),
        "counter" => v.seq(CounterSpec::new(object)),
        "kv" => v.seq(KvMapSpec::new()),
        "write-snapshot" => v.interval(WriteSnapshotSpec::new(object, 4)),
        _ => return None,
    })
}

/// The visitor that only reads the kind off the table.
struct KindOf;

impl SpecVisitor for KindOf {
    type Output = Kind;
    fn ca<S>(self, _: S) -> Kind {
        Kind::Ca
    }
    fn seq<S>(self, _: S) -> Kind {
        Kind::Seq
    }
    fn interval<S>(self, _: S) -> Kind {
        Kind::Interval
    }
}

/// The specification a run checks: a built-in, by name, or one compiled
/// from a `--spec` file. Only [`select_spec`] makes one, so a built-in
/// name is always in the table.
#[derive(Debug, Clone)]
pub struct SelectedSpec {
    name: String,
    /// The compiled spec; `None` for a built-in.
    loaded: Option<Arc<SpecDef>>,
}

impl SelectedSpec {
    fn builtin(name: &str) -> Self {
        SelectedSpec { name: name.to_owned(), loaded: None }
    }

    fn loaded(def: &Arc<SpecDef>) -> Self {
        SelectedSpec { name: def.name().to_owned(), loaded: Some(Arc::clone(def)) }
    }

    /// The spec's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The compiled spec, when it came from a `--spec` file.
    pub fn loaded_def(&self) -> Option<&Arc<SpecDef>> {
        self.loaded.as_ref()
    }

    /// The spec's kind; `kind ca` and `kind seq` for loaded specs.
    pub fn kind(&self) -> Kind {
        match &self.loaded {
            None => self.visit(ObjectId(0), KindOf),
            Some(def) if def.is_sequential() => Kind::Seq,
            Some(_) => Kind::Ca,
        }
    }

    /// Instantiates the spec for `object` and hands it to `v` by kind.
    pub fn visit<V: SpecVisitor>(&self, object: ObjectId, v: V) -> V::Output {
        match &self.loaded {
            None => visit_builtin(&self.name, object, v)
                .expect("select_spec only selects built-ins that are in the table"),
            Some(def) => match def.to_seq(object) {
                Some(spec) => v.seq(spec),
                None => v.ca(def.to_ca(object)),
            },
        }
    }
}

/// A compiled `--spec` file, with the path it was read from.
#[derive(Debug, Clone)]
pub struct LoadedSpecs {
    path: String,
    file: SpecFile,
}

impl LoadedSpecs {
    /// Reads and compiles the `.cal` file at `path` (see
    /// `docs/SPEC_DSL.md`). On failure the reason — including the
    /// compile diagnostic — is on stderr behind `bin`, and the error is
    /// [`EXIT_ERROR`].
    pub fn load(bin: &str, path: &str) -> Result<Self, u8> {
        let src = std::fs::read_to_string(path).map_err(|e| {
            let _ = writeln!(io::stderr(), "{bin}: cannot read {path}: {e}");
            EXIT_ERROR
        })?;
        let file = dsl::parse_str(&src).map_err(|diag| {
            let _ = writeln!(io::stderr(), "{bin}: {path}: {diag}");
            EXIT_ERROR
        })?;
        Ok(LoadedSpecs { path: path.to_owned(), file })
    }

    /// Whether the file defines a spec called `name`.
    pub fn defines(&self, name: &str) -> bool {
        self.file.get(name).is_some()
    }
}

/// Picks the spec a run checks. A name resolves in the loaded file
/// first, so loaded names shadow the built-ins, then in the built-in
/// table; with no name, a loaded file must define exactly one spec. On
/// failure the reason is on stderr behind `bin` and the result is `None`:
/// a usage error ([`EXIT_USAGE`]).
pub fn select_spec(
    bin: &str,
    loaded: Option<&LoadedSpecs>,
    name: Option<&str>,
) -> Option<SelectedSpec> {
    let complain = |msg: String| {
        let _ = writeln!(io::stderr(), "{bin}: {msg}");
        None
    };
    match (loaded, name) {
        (Some(l), Some(name)) => match l.file.get(name) {
            Some(def) => Some(SelectedSpec::loaded(def)),
            None if visit_builtin(name, ObjectId(0), KindOf).is_some() => {
                Some(SelectedSpec::builtin(name))
            }
            None => complain(format!("unknown spec {name:?} (not in {} either)", l.path)),
        },
        (Some(l), None) => match l.file.specs() {
            [only] => Some(SelectedSpec::loaded(only)),
            many => complain(format!(
                "{} defines {} specs ({}); name the one to check",
                l.path,
                many.len(),
                l.file.names().join(", ")
            )),
        },
        (None, Some(name)) => match visit_builtin(name, ObjectId(0), KindOf) {
            Some(_) => Some(SelectedSpec::builtin(name)),
            None => complain(format!("unknown spec {name:?}")),
        },
        (None, None) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_parse_decimal_and_hex() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0xCA11"), Some(0xCA11));
        assert_eq!(parse_seed("0XCA11"), Some(0xCA11));
        assert_eq!(parse_seed("zebra"), None);
    }

    #[test]
    fn shutdown_flag_round_trips() {
        request_shutdown();
        assert!(shutdown_requested());
    }
}
