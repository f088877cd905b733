//! Panic capture and crash fingerprinting.
//!
//! A crash is identified by its *panic site* (`file:line` of the
//! `panic!`/`unwrap` that fired), not by the input that triggered it, so
//! thousands of inputs hitting the same defect deduplicate to one crash
//! class. Capture works by installing a process-wide panic hook exactly
//! once; while a guarded run is active the hook records the panic into a
//! thread-local (same-thread panics) and a process-global slot (panics on
//! engine worker threads, which `scatter` contains before they reach us)
//! instead of printing to stderr — fuzz logs stay byte-deterministic.
//! Outside guarded runs the hook delegates to the previously installed
//! hook, so ordinary test failures keep their backtraces.
//!
//! The process-global slot cannot tell whose worker panicked, so
//! top-level guarded runs are serialized: concurrent callers on
//! different threads take turns, and each sees only its own crash.

use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe, PanicHookInfo};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock};

/// A deduplicable crash: the panic site and its (first) message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Crash {
    /// Normalized `file:line` of the panic site — the dedup key.
    pub fingerprint: String,
    /// The panic payload, flattened to one line.
    pub message: String,
}

type Hook = Box<dyn Fn(&PanicHookInfo<'_>) + Send + Sync>;

static INSTALL: Once = Once::new();
static PREV_HOOK: OnceLock<Hook> = OnceLock::new();
static GUARDED: AtomicUsize = AtomicUsize::new(0);
static CROSS_THREAD: Mutex<Option<Crash>> = Mutex::new(None);
/// Held for the whole of every top-level guarded run.
static RUN: Mutex<()> = Mutex::new(());

thread_local! {
    static LAST: RefCell<Option<Crash>> = const { RefCell::new(None) };
    /// Guarded runs active on this thread; only the outermost one
    /// takes [`RUN`], so nested runs cannot deadlock on it.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

fn record(info: &PanicHookInfo<'_>) {
    let fingerprint = match info.location() {
        Some(loc) => format!("{}:{}", normalize_path(loc.file()), loc.line()),
        None => "unknown:0".to_owned(),
    };
    let payload = info.payload();
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned());
    let crash = Crash {
        fingerprint,
        message: flatten(&message),
    };
    LAST.with(|l| *l.borrow_mut() = Some(crash.clone()));
    let mut slot = CROSS_THREAD.lock().unwrap_or_else(|p| p.into_inner());
    slot.get_or_insert(crash);
}

/// Strips the machine-specific path prefix so fingerprints are stable
/// across checkouts: everything before the last `crates/` (or, failing
/// that, `src/`) component is dropped.
fn normalize_path(file: &str) -> String {
    let unified = file.replace('\\', "/");
    if let Some(i) = unified.rfind("crates/") {
        return unified[i..].to_owned();
    }
    if let Some(i) = unified.rfind("src/") {
        return unified[i..].to_owned();
    }
    unified
}

fn flatten(message: &str) -> String {
    let one_line: String = message
        .chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .collect();
    if one_line.len() > 160 {
        let mut cut = 160;
        while !one_line.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}…", &one_line[..cut])
    } else {
        one_line
    }
}

fn install() {
    INSTALL.call_once(|| {
        let prev = panic::take_hook();
        let _ = PREV_HOOK.set(prev);
        panic::set_hook(Box::new(|info| {
            if GUARDED.load(Ordering::SeqCst) > 0 {
                record(info);
            } else if let Some(prev) = PREV_HOOK.get() {
                prev(info);
            }
        }));
    });
}

/// Runs `f`, capturing any panic — including panics on engine worker
/// threads that `scatter` contains before they can unwind into us — as a
/// fingerprinted [`Crash`]. Nested guarded runs on the same thread are
/// allowed; top-level runs on different threads are serialized, so a
/// worker thread `f` waits on must not start a guarded run of its own.
pub fn run_guarded<R>(f: impl FnOnce() -> R) -> Result<R, Crash> {
    install();
    let _turn = (DEPTH.get() == 0).then(|| RUN.lock().unwrap_or_else(|p| p.into_inner()));
    DEPTH.set(DEPTH.get() + 1);
    GUARDED.fetch_add(1, Ordering::SeqCst);
    LAST.with(|l| *l.borrow_mut() = None);
    *CROSS_THREAD.lock().unwrap_or_else(|p| p.into_inner()) = None;
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    GUARDED.fetch_sub(1, Ordering::SeqCst);
    DEPTH.set(DEPTH.get() - 1);
    let own = LAST.with(|l| l.borrow_mut().take());
    let cross = CROSS_THREAD
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .take();
    match result {
        Ok(value) => match cross {
            // A worker thread panicked even though the call returned.
            Some(crash) => Err(crash),
            None => Ok(value),
        },
        Err(_) => Err(own.or(cross).unwrap_or(Crash {
            fingerprint: "unknown:0".to_owned(),
            message: "panic with no recorded site".to_owned(),
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_fingerprint_and_message() {
        let err = run_guarded(|| panic!("boom {}", 42)).unwrap_err();
        assert!(
            err.fingerprint.starts_with("crates/fuzz/src/crash.rs:"),
            "{}",
            err.fingerprint
        );
        assert_eq!(err.message, "boom 42");
    }

    #[test]
    fn success_passes_through() {
        assert_eq!(run_guarded(|| 7).unwrap(), 7);
    }

    #[test]
    fn same_site_same_fingerprint_different_messages() {
        let f = |n: u32| run_guarded(move || -> () { panic!("n = {n}") }).unwrap_err();
        let a = f(1);
        let b = f(2);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_ne!(a.message, b.message);
    }

    #[test]
    fn captures_worker_thread_panics_contained_by_the_caller() {
        let err = run_guarded(|| {
            // Simulates the engine's scatter: the worker panic never
            // unwinds into this thread.
            let handle = std::thread::spawn(|| panic!("worker died"));
            let _ = handle.join();
            "survived"
        })
        .unwrap_err();
        assert_eq!(err.message, "worker died");
    }

    #[test]
    fn concurrent_guarded_runs_each_see_only_their_own_crash() {
        let start = std::sync::Arc::new(std::sync::Barrier::new(8));
        let callers: Vec<_> = (0..8)
            .map(|n| {
                let start = start.clone();
                std::thread::spawn(move || {
                    start.wait();
                    for round in 0..20 {
                        let crash = run_guarded(move || {
                            // A worker panic, as `scatter` contains it.
                            let _ = std::thread::spawn(move || panic!("{n}/{round}")).join();
                        });
                        assert_eq!(crash.unwrap_err().message, format!("{n}/{round}"));
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("every caller saw only its own crash");
        }
    }

    #[test]
    fn nested_guarded_runs_keep_their_own_crash() {
        let outer = run_guarded(|| {
            let inner = run_guarded(|| -> () { panic!("inner") }).unwrap_err();
            assert_eq!(inner.message, "inner");
            panic!("outer")
        })
        .unwrap_err();
        assert_eq!(outer.message, "outer");
    }

    #[test]
    fn messages_are_flattened_to_one_line() {
        let err = run_guarded(|| -> () { panic!("line one\nline two") }).unwrap_err();
        assert_eq!(err.message, "line one line two");
    }
}
