//! `http-zipf`: an open loop of Poisson arrivals at a fixed rate sends
//! `GET /generate/<id>` to the daemon, one connection per request,
//! with zipf(1.0) skew over the catalogue. Latency runs from when a
//! request was due, so a stall also delays the requests behind it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cognicryptgen::rules::PackSource;

use crate::daemon::{http_exchange, http_reply, percent_encode, Daemon, Stamps};
use crate::oracle::{run_op, Oracle, Reply};
use crate::plan::{self, Op, PlanSummary, CLIENTS};
use crate::served::{self, Control, Served};
use crate::{
    probe_phase, segment_range, segmented, time_open_and_warm, Ctx, Log, Outcome, HTTP_RATE,
    PROBES, SEGMENTS, SETUP_REPS, TRACEZ_CAPACITY,
};

/// One op as an HTTP exchange; its stamps go to `stamps`.
fn call(addr: &str, op: &Op, stamps: &mut Option<Stamps>) -> Result<Reply, String> {
    let (method, path) = match op {
        Op::Generate(uc) => ("GET", format!("/generate/{uc}")),
        Op::Reject(selector) => ("GET", format!("/generate/{}", percent_encode(selector))),
        Op::Reload => ("POST", "/reload".to_owned()),
        Op::Statz => ("GET", "/statz?json=1".to_owned()),
    };
    let (code, body, s) = http_exchange(addr, method, &path, "")?;
    *stamps = Some(s);
    Ok(http_reply(code, body))
}

/// Sends `arrivals` at their due `offsets` from now; each arrival goes
/// to whichever client thread is free first. Returns the log and the
/// window from the first due instant to the last reply.
fn open_loop(
    ctx: &Ctx,
    oracle: &Oracle,
    addr: &str,
    arrivals: &[Op],
    offsets: &[Duration],
) -> (Log, Duration) {
    let start = Instant::now() + Duration::from_millis(2);
    let next = AtomicUsize::new(0);
    let parts: Vec<Log> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut log = Log::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(op) = arrivals.get(i) else {
                            break;
                        };
                        let due = start + (offsets[i] - offsets[0]);
                        if let Some(ahead) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(ahead);
                        }
                        log.lag.push(Instant::now().saturating_duration_since(due));
                        let mut stamps = None;
                        let reply = run_op(ctx.fault(), op, || call(addr, op, &mut stamps));
                        let done = stamps.map_or_else(Instant::now, |s| s.done);
                        log.record(op, &reply, oracle, done - due, stamps.as_ref());
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads contain their panics"))
            .collect()
    });
    let mut log = Log::default();
    for part in parts {
        log.merge(part);
    }
    let window = log.last_done.map_or(Duration::ZERO, |t| t - start);
    (log, window)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let oracle = Oracle::build(PackSource::Embedded)?;
    let n_ops = (HTTP_RATE * ctx.seconds.as_secs_f64()).floor().max(1.0) as usize;
    let arrivals = plan::zipf_ids(ctx.seed, n_ops);
    let offsets = plan::poisson_offsets(ctx.seed, 0, n_ops, HTTP_RATE);
    let mut args: Vec<String> = ["--listen", "127.0.0.1:0", "--threads", "2"]
        .map(str::to_owned)
        .to_vec();
    if ctx.traced {
        args.extend(["--tracez-capacity".to_owned(), TRACEZ_CAPACITY.to_owned()]);
    }

    let mut log = Log::default();
    let mut window = Duration::ZERO;
    let mut gen_segments = Vec::new();
    let mut served = Served::default();
    let mut notes = vec![format!(
        "open loop, Poisson arrivals at {} req/s: {n_ops} arrivals over {SEGMENTS} daemon instances; \
         probes: {} hostile selectors and {} reloads at Poisson arrivals on the otherwise idle daemon",
        HTTP_RATE,
        PROBES / 2,
        PROBES / 2
    )];
    let (setup, boot_log, peak_rss_kb) = segmented(
        ctx,
        &oracle,
        &args,
        &Op::Generate(plan::setup_uc()),
        |d, op| call(address(d), op, &mut None),
        |daemon, k| {
            let addr = address(daemon);
            let mut control = Control::Http(addr.to_owned());
            let before = ctx.traced.then(|| control.open_window()).transpose()?;

            let range = segment_range(n_ops, k);
            let (segment, elapsed) = open_loop(
                ctx,
                &oracle,
                addr,
                &arrivals[range.clone()],
                &offsets[range],
            );
            gen_segments.push(segment.gen.clone());
            log.merge(segment);
            window += elapsed;
            let after = ctx.traced.then(|| control.close_window()).transpose()?;

            // Probes: hostile selectors and reloads, on the daemon
            // otherwise idle.
            let probed = probe_phase(ctx, &oracle, segment_range(PROBES, k), |op| {
                call(addr, op, &mut None)
            });
            log.merge_probes(probed);

            if let (Some(before), Some(after)) = (before, after) {
                notes.extend(served.collect(&mut control, "http", &before, &after)?);
            }
            Ok(())
        },
    )?;
    log.merge_checks(boot_log);

    let layers = if ctx.traced {
        let replayed = served::replay(&oracle, &log.gen_ucs, 2000);
        let (open, warm, compiled) = time_open_and_warm(&PackSource::Embedded, SETUP_REPS)?;
        notes.push(format!("warm-up compiled {compiled} ORDER automata"));
        Some(served::layers(
            "http", &log, &served, &replayed, &open, &warm,
        ))
    } else {
        None
    };
    Ok(Outcome {
        plan: PlanSummary::of(&arrivals),
        log,
        window,
        gen_segments,
        setup,
        peak_rss_kb,
        layers,
        notes,
    })
}

fn address(daemon: &Daemon) -> &str {
    daemon.http.as_deref().expect("started with --listen")
}
