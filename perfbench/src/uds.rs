//! `uds-mixed`: two closed-loop clients, each holding one connection to
//! the daemon's Unix socket, replay the load harness's standard mix —
//! zipf generates, hostile lines, a reload every 97 ops and a
//! `statz json` every 61. The daemon boots from, and reloads from, a
//! `.crpack` compiled before the clock starts.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use cognicryptgen::rules::PackSource;

use crate::daemon::{Daemon, Stamps, UdsConn};
use crate::oracle::{run_op, Oracle};
use crate::plan::{self, Op, PlanSummary, CLIENTS};
use crate::served::{self, Control, Served};
use crate::stats::Samples;
use crate::{
    segmented, time_open_and_warm, Ctx, Log, Outcome, SEGMENTS, SETUP_REPS, TRACEZ_CAPACITY,
    UDS_BUDGET,
};

fn line(op: &Op) -> String {
    match op {
        Op::Generate(uc) => format!("generate {uc}"),
        Op::Reject(line) => line.clone(),
        Op::Reload => "reload".to_owned(),
        Op::Statz => "statz json".to_owned(),
    }
}

/// Compiles the served pack with the daemon binary's own
/// `compile-rules`.
fn compile_pack(ctx: &Ctx, out: &Path) -> Result<(), String> {
    let status = Command::new(&ctx.daemon_bin)
        .args(["compile-rules", "jca@v2"])
        .arg(out)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("compile-rules: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("compile-rules exited with {status}"))
    }
}

/// Client `c` runs its share of `ops`, from its `cursor`-th op on, over
/// one held connection until `stop_at`; advances the cursor. Returns
/// the log and whether the share ran out first.
fn client(
    ctx: &Ctx,
    oracle: &Oracle,
    path: &Path,
    ops: &[Op],
    c: usize,
    cursor: &mut usize,
    stop_at: Instant,
) -> (Log, bool) {
    let mut log = Log::default();
    let mut conn: Option<UdsConn> = None;
    for (_, op) in plan::share(ops, c).skip(*cursor) {
        if Instant::now() >= stop_at {
            return (log, false);
        }
        *cursor += 1;
        let mut stamps: Option<Stamps> = None;
        let t0 = Instant::now();
        let reply = run_op(ctx.fault(), op, || {
            if conn.is_none() {
                conn = Some(UdsConn::connect(path)?);
            }
            let held = conn.as_mut().expect("connected above");
            let (reply, s) = held.exchange(&line(op))?;
            stamps = Some(s);
            Ok(reply)
        });
        if reply.is_err() {
            // The stream may be out of step: start afresh.
            conn = None;
        }
        let done = stamps.map_or_else(Instant::now, |s| s.done);
        log.record(op, &reply, oracle, done - t0, stamps.as_ref());
    }
    (log, true)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let pack = ctx.run_dir.join("jca-v2.crpack");
    compile_pack(ctx, &pack)?;
    let source = PackSource::Compiled(pack.clone());
    let oracle = Oracle::build(source.clone())?;
    let ops = plan::uds_mixed(ctx.seed, UDS_BUDGET, &ctx.corpus);
    let first = Op::Generate(plan::setup_uc());
    let mut args = vec![
        "--socket".to_owned(),
        ctx.run_dir.join("d.sock").display().to_string(),
        "--threads".to_owned(),
        "2".to_owned(),
        "--rules".to_owned(),
        pack.display().to_string(),
    ];
    if ctx.traced {
        args.extend(["--tracez-capacity".to_owned(), TRACEZ_CAPACITY.to_owned()]);
    }

    let mut log = Log::default();
    let mut window = Duration::ZERO;
    let mut gen_segments = Vec::new();
    let mut served = Served::default();
    let mut cursors = [0usize; CLIENTS];
    let mut exhausted = false;
    let mut notes = vec![format!(
        "closed loop over {SEGMENTS} daemon instances, 2 held connections each; the plan holds {} ops",
        ops.len()
    )];
    let (setup, boot_log, peak_rss_kb) = segmented(
        ctx,
        &oracle,
        &args,
        &first,
        |d, op| UdsConn::connect(path(d))?.request(&line(op)),
        |daemon, _| {
            let path = path(daemon);
            let mut control = ctx.traced.then(|| Control::Uds(path.to_owned()));
            let before = control.as_mut().map(Control::open_window).transpose()?;

            let start = Instant::now();
            let stop_at = start + ctx.seconds / SEGMENTS as u32;
            let parts: Vec<(Log, bool)> = std::thread::scope(|s| {
                let handles: Vec<_> = cursors
                    .iter_mut()
                    .enumerate()
                    .map(|(c, cursor)| {
                        let (ops, oracle) = (&ops, &oracle);
                        s.spawn(move || client(ctx, oracle, path, ops, c, cursor, stop_at))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client threads contain their panics"))
                    .collect()
            });
            let mut segment = Log::default();
            for (part, ran_out) in parts {
                segment.merge(part);
                exhausted |= ran_out;
            }
            window += segment.last_done.map_or(Duration::ZERO, |t| t - start);
            gen_segments.push(segment.gen.clone());
            log.merge(segment);

            if let (Some(control), Some(before)) = (control.as_mut(), before) {
                let after = control.close_window()?;
                notes.extend(served.collect(control, "uds", &before, &after)?);
            }
            Ok(())
        },
    )?;
    log.merge_checks(boot_log);
    if exhausted {
        notes.push("the plan ran out before the time did".to_owned());
    }

    let layers = if ctx.traced {
        let replayed = served::replay(&oracle, &log.gen_ucs, 2000);
        let (open, _, _) = time_open_and_warm(&source, SETUP_REPS)?;
        notes.push(
            "statemachine.warm_ms is 0: a daemon booted from a .crpack seeds its cache and skips warm-up"
                .to_owned(),
        );
        Some(served::layers(
            "uds",
            &log,
            &served,
            &replayed,
            &open,
            &Samples::default(),
        ))
    } else {
        None
    };
    Ok(Outcome {
        plan: PlanSummary::of(&ops),
        log,
        window,
        gen_segments,
        setup,
        peak_rss_kb,
        layers,
        notes,
    })
}

fn path(daemon: &Daemon) -> &Path {
    daemon.uds.as_deref().expect("started with --socket")
}
