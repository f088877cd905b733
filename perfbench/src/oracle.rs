//! The correctness check: expected outputs built and validated before
//! the clock starts, the verdict on every reply, and the fault injector
//! that proves misbehaviour is caught.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

use cognicryptgen::core::Generator;
use cognicryptgen::javamodel::ast::CompilationUnit;
use cognicryptgen::javamodel::jca::jca_type_table;
use cognicryptgen::javamodel::parser::parse_java;
use cognicryptgen::javamodel::typecheck::check_unit;
use cognicryptgen::javamodel::typetable::ClassDef;
use cognicryptgen::javamodel::TypeTable;
use cognicryptgen::rules::{self, PackSource};
use cognicryptgen::sast::{analyze_unit, AnalyzerOptions};
use cognicryptgen::usecases::{all_use_cases, UseCase};
use devharness::json::Json;

use crate::plan::Op;

/// One use case's expected output and the pieces needed to re-check it.
pub struct Expected {
    pub case: UseCase,
    pub source: String,
    /// The generator's own compilation unit for `source`.
    pub unit: CompilationUnit,
    /// The JCA type table plus the template class, as the generator
    /// type-checks against it.
    pub check_table: TypeTable,
}

/// Expected output of every catalogued use case under one rule pack.
pub struct Oracle {
    pub expected: BTreeMap<u8, Expected>,
}

impl Oracle {
    /// Opens `source` afresh and generates every use case on the cold,
    /// uncached path. Each output must parse back as Java, type-check,
    /// and show no misuse under the CrySL-based analyser (the paper's
    /// RQ1 check) before any response is compared against it.
    pub fn build(source: PackSource) -> Result<Oracle, String> {
        let label = source.to_string();
        let pack = rules::open_uncached(source).map_err(|e| format!("{label}: {e}"))?;
        let table = jca_type_table();
        let mut expected = BTreeMap::new();
        for case in all_use_cases() {
            let id = case.id;
            let fail = |what: &str, e: &dyn std::fmt::Display| format!("uc{id:02} {what}: {e}");
            let generated = Generator::new()
                .generate_uncached(&case.template, &pack.rules, &table)
                .map_err(|e| fail("generation", &e))?;
            let parsed =
                parse_java(&generated.java_source, &table).map_err(|e| fail("parse_java", &e))?;
            let mut check_table = table.clone();
            check_table.add(ClassDef::new(case.template.class_name.clone()).ctor(vec![]));
            check_unit(&parsed, &check_table).map_err(|e| fail("check_unit", &e))?;
            let misuses = analyze_unit(&parsed, &pack.rules, &table, AnalyzerOptions::default());
            if !misuses.is_empty() {
                return Err(fail(
                    "analyze_unit",
                    &format!("{} misuse(s)", misuses.len()),
                ));
            }
            expected.insert(
                id,
                Expected {
                    case,
                    source: generated.java_source,
                    unit: generated.unit,
                    check_table,
                },
            );
        }
        Ok(Oracle { expected })
    }

    pub fn get(&self, uc: u8) -> &Expected {
        &self.expected[&uc]
    }
}

/// A reply as the client saw it: the outcome class (`ok` or the typed
/// error class) and the payload.
#[derive(Debug, Clone)]
pub struct Reply {
    pub class: String,
    pub body: String,
}

impl Reply {
    pub fn ok(body: String) -> Reply {
        Reply {
            class: "ok".to_owned(),
            body,
        }
    }
}

/// Why an op failed. Any failure fails the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// A well-formed generate returned bytes other than the expected
    /// output (or a snapshot body that is not JSON).
    WrongBytes,
    /// The reply class was not the one the op must get: `ok` for a
    /// generate, reload or snapshot; a typed or protocol error for a
    /// hostile request.
    WrongClass,
    /// The target panicked (in-process) or answered with the daemon's
    /// `panic` class.
    Panic,
    /// Connect, read or write failed, or the reply was unframed.
    Transport,
}

impl Failure {
    pub fn name(self) -> &'static str {
        match self {
            Failure::WrongBytes => "wrong_bytes",
            Failure::WrongClass => "wrong_class",
            Failure::Panic => "panic",
            Failure::Transport => "transport",
        }
    }
}

/// A call that produced no reply.
#[derive(Debug, Clone)]
pub enum CallError {
    Transport(String),
    Panic(String),
}

/// The error classes a hostile request may get: the daemon's typed
/// input errors and its protocol refusals.
const REFUSALS: [&str; 6] = [
    "usage",
    "invalid",
    "protocol",
    "not_found",
    "method_not_allowed",
    "too_large",
];

/// The verdict on one op's reply.
pub fn check(op: &Op, reply: &Result<Reply, CallError>, oracle: &Oracle) -> Result<(), Failure> {
    let reply = match reply {
        Ok(reply) => reply,
        Err(CallError::Transport(_)) => return Err(Failure::Transport),
        Err(CallError::Panic(_)) => return Err(Failure::Panic),
    };
    if reply.class == "panic" {
        return Err(Failure::Panic);
    }
    match op {
        Op::Reject(_) if REFUSALS.contains(&reply.class.as_str()) => Ok(()),
        Op::Reject(_) => Err(Failure::WrongClass),
        _ if reply.class != "ok" => Err(Failure::WrongClass),
        Op::Generate(uc) if reply.body == oracle.get(*uc).source => Ok(()),
        Op::Generate(_) => Err(Failure::WrongBytes),
        Op::Statz => match Json::parse(&reply.body) {
            Ok(Json::Obj(_)) => Ok(()),
            _ => Err(Failure::WrongBytes),
        },
        Op::Reload => Ok(()),
    }
}

/// Attempted ops and failures, per failure kind, with the first few
/// failure messages for the log.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: BTreeMap<Failure, u64>,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, op: &Op, verdict: Result<(), Failure>) {
        self.attempted += 1;
        if let Err(failure) = verdict {
            *self.failed.entry(failure).or_default() += 1;
            if self.messages.len() < 5 {
                let what = match op {
                    Op::Generate(uc) => format!("generate uc{uc:02}"),
                    Op::Reject(payload) => format!("reject {payload:?}"),
                    other => other.class().to_owned(),
                };
                self.messages.push(format!("{}: {what}", failure.name()));
            }
        }
    }

    pub fn failed_total(&self) -> u64 {
        self.failed.values().sum()
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        for (failure, n) in other.failed {
            *self.failed.entry(failure).or_default() += n;
        }
        for m in other.messages {
            if self.messages.len() < 5 {
                self.messages.push(m);
            }
        }
    }
}

/// What the self-test injects: one misbehaving reply of each kind the
/// check must catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip one byte of a generated body.
    WrongByte,
    /// Panic inside the call.
    Panic,
    /// Drop the reply as if the connection failed.
    Transport,
    /// Swap the reply class: `ok` becomes `usage`, a refusal becomes `ok`.
    WrongClass,
}

impl FaultKind {
    pub fn parse(name: &str) -> Option<FaultKind> {
        match name {
            "wrong-byte" => Some(FaultKind::WrongByte),
            "panic" => Some(FaultKind::Panic),
            "transport" => Some(FaultKind::Transport),
            "wrong-class" => Some(FaultKind::WrongClass),
            _ => None,
        }
    }
}

/// A fault that fires once, on the first eligible op of the measured
/// window (a generate, for a wrong byte).
#[derive(Debug)]
pub struct Fault {
    kind: FaultKind,
    armed: AtomicBool,
}

impl Fault {
    pub fn new(kind: FaultKind) -> Fault {
        Fault {
            kind,
            armed: AtomicBool::new(true),
        }
    }

    fn fire(&self, op: &Op) -> Option<FaultKind> {
        let eligible = self.kind != FaultKind::WrongByte || matches!(op, Op::Generate(_));
        (eligible && self.armed.swap(false, Ordering::SeqCst)).then_some(self.kind)
    }
}

/// Runs one call with panic containment, applying `fault` when it
/// fires on `op`. The call returns `Err` for a transport failure.
pub fn run_op(
    fault: Option<&Fault>,
    op: &Op,
    call: impl FnOnce() -> Result<Reply, String>,
) -> Result<Reply, CallError> {
    let fired = fault.and_then(|f| f.fire(op));
    let result = catch_unwind(AssertUnwindSafe(|| {
        if fired == Some(FaultKind::Panic) {
            panic!("injected panic");
        }
        call()
    }));
    let mut reply = match result {
        Ok(Ok(reply)) => reply,
        Ok(Err(e)) => return Err(CallError::Transport(e)),
        Err(payload) => {
            let text = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            return Err(CallError::Panic(text));
        }
    };
    match fired {
        Some(FaultKind::WrongByte) => {
            let mut bytes = std::mem::take(&mut reply.body).into_bytes();
            if let Some(b) = bytes.first_mut() {
                *b ^= 0x01;
            }
            reply.body = String::from_utf8_lossy(&bytes).into_owned();
        }
        Some(FaultKind::Transport) => return Err(CallError::Transport("injected".to_owned())),
        Some(FaultKind::WrongClass) => {
            reply.class = if reply.class == "ok" { "usage" } else { "ok" }.to_owned();
        }
        Some(FaultKind::Panic) | None => {}
    }
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A well-behaved stand-in target: answers every op correctly.
    fn good(op: &Op, oracle: &Oracle) -> Result<Reply, String> {
        Ok(match op {
            Op::Generate(uc) => Reply::ok(oracle.get(*uc).source.clone()),
            Op::Reject(_) => Reply {
                class: "usage".to_owned(),
                body: "{}".to_owned(),
            },
            Op::Reload => Reply::ok("{}".to_owned()),
            Op::Statz => Reply::ok("{\"uds.generate.ok\":{}}".to_owned()),
        })
    }

    fn ops() -> Vec<Op> {
        vec![
            Op::Reject("no-such-case".to_owned()),
            Op::Generate(3),
            Op::Reload,
            Op::Generate(11),
            Op::Statz,
            Op::Generate(26),
        ]
    }

    fn tally(oracle: &Oracle, fault: Option<&Fault>) -> Tally {
        let mut tally = Tally::default();
        for op in ops() {
            let reply = run_op(fault, &op, || good(&op, oracle));
            tally.record(&op, check(&op, &reply, oracle));
        }
        tally
    }

    #[test]
    fn the_oracle_validates_every_use_case() {
        let oracle = Oracle::build(PackSource::Embedded).unwrap();
        assert_eq!(oracle.expected.len(), all_use_cases().len());
        assert_eq!(tally(&oracle, None).failed_total(), 0);
    }

    #[test]
    fn each_injected_fault_fails_exactly_one_op_of_its_kind() {
        let oracle = Oracle::build(PackSource::Embedded).unwrap();
        for (kind, failure) in [
            (FaultKind::WrongByte, Failure::WrongBytes),
            (FaultKind::Panic, Failure::Panic),
            (FaultKind::Transport, Failure::Transport),
            (FaultKind::WrongClass, Failure::WrongClass),
        ] {
            let fault = Fault::new(kind);
            let t = tally(&oracle, Some(&fault));
            assert_eq!(t.attempted, ops().len() as u64);
            assert_eq!(t.failed_total(), 1, "{kind:?}: {:?}", t.failed);
            assert_eq!(t.failed.get(&failure), Some(&1), "{kind:?}");
        }
    }

    #[test]
    fn refusals_and_error_classes_are_judged_by_op() {
        let oracle = Oracle::build(PackSource::Embedded).unwrap();
        let reply = |class: &str, body: &str| {
            Ok(Reply {
                class: class.to_owned(),
                body: body.to_owned(),
            })
        };
        let reject = Op::Reject("x".to_owned());
        assert_eq!(check(&reject, &reply("protocol", ""), &oracle), Ok(()));
        assert_eq!(
            check(&reject, &reply("ok", ""), &oracle),
            Err(Failure::WrongClass)
        );
        assert_eq!(
            check(&Op::Generate(1), &reply("usage", ""), &oracle),
            Err(Failure::WrongClass)
        );
        assert_eq!(
            check(&Op::Reload, &reply("panic", ""), &oracle),
            Err(Failure::Panic)
        );
        assert_eq!(
            check(&Op::Statz, &reply("ok", "not json"), &oracle),
            Err(Failure::WrongBytes)
        );
    }
}
