//! The two API workloads against a live `acs-serve`: set-up, worker
//! placement, an open-loop phase at the nominal rate, and a rate ladder
//! for `max_rate_rps`.

use crate::client::{dial_spread, open_loop, Outcome, Slot};
use crate::inputs::{arrivals, setup_requests, Class, Mix, Request, Workload};
use crate::replay;
use crate::report::Report;
use crate::server::{Metrics, ServerProc};
use crate::stats::{median, median_of_batch_means, spread_note, tail, windowed_tail};
use crate::sys::vm_hwm_kib;
use crate::Ctx;
use acs_serve::AppState;
use std::io;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rates and the latency limit of one API workload.
struct Plan {
    /// The fixed rate `p50_ms` and `p99_ms` are measured at.
    nominal_rps: f64,
    /// The ladder's first rung.
    ladder_base: f64,
    /// The limit `p99_ms` must meet on a ladder rung.
    limit_ms: f64,
    /// Share of the nominal phase's responses checked byte for byte.
    check_share: f64,
}

fn plan(workload: Workload) -> Plan {
    match workload {
        Workload::Interactive => Plan {
            nominal_rps: 8000.0,
            ladder_base: 16000.0,
            limit_ms: 10.0,
            check_share: 0.005,
        },
        _ => Plan {
            nominal_rps: 40.0,
            ladder_base: 100.0,
            limit_ms: 250.0,
            check_share: 0.05,
        },
    }
}

/// Share of `--seconds` spent at the nominal rate; the ladder gets the
/// rest.
const NOMINAL_SHARE: f64 = 0.5;
/// Requests of the live phase the traced run replays in process (a
/// prefix, to bound the span count).
const MAX_REPLAY: usize = 20_000;
/// Rungs the ladder may try.
const MAX_RUNGS: usize = 12;

/// Search the fixed ladder `base * 2^k * (1 + j/20)` for the highest
/// rate at which `pass` holds: doublings until one misses, then steps of
/// a twentieth of the last passing doubling upwards until one misses.
/// Returns that rate (0 when `base` misses) and every rung tried.
fn ladder(base: f64, mut pass: impl FnMut(f64) -> bool) -> (f64, Vec<(f64, bool)>) {
    let mut tried = Vec::new();
    let mut best = 0.0;
    let mut rate = base;
    while tried.len() < MAX_RUNGS {
        let ok = pass(rate);
        tried.push((rate, ok));
        if !ok {
            break;
        }
        best = rate;
        rate *= 2.0;
    }
    let doubling = best;
    for j in 1..20 {
        if doubling == 0.0 || tried.len() >= MAX_RUNGS {
            break;
        }
        let rate = doubling * (1.0 + f64::from(j) / 20.0);
        let ok = pass(rate);
        tried.push((rate, ok));
        if !ok {
            break;
        }
        best = rate;
    }
    (best, tried)
}

/// Set-ups averaged into one batch. Most of a set-up is the first
/// `/v1/simulate` in a fresh process, which takes one of two distinct
/// times; `setup_s` is the median of batch means, which follows the
/// two times' shares instead of jumping between them.
const SETUP_BATCH: usize = 4;
/// Set-ups per invocation.
const SETUP_RUNS: usize = 8 * SETUP_BATCH;
/// How long a phase waits for its last responses.
const DRAIN: Duration = Duration::from_secs(10);

/// Spawn a server and wait for a 200 on every class the workload sends:
/// the server and the seconds that took.
fn set_up(ctx: &Ctx, workload: Workload) -> io::Result<(ServerProc, f64)> {
    let t0 = Instant::now();
    let server = ServerProc::spawn(&ctx.bin_dir.join("acs-serve"), ctx.nproc)?;
    server.await_ok(&setup_requests(workload), Duration::from_secs(30))?;
    Ok((server, t0.elapsed().as_secs_f64()))
}

/// One open-loop phase: `requests` sent on a Poisson schedule at `rate`.
struct Phase {
    requests: Vec<Arc<Request>>,
    slots: Vec<Slot>,
    outcomes: Vec<Outcome>,
    seconds: f64,
}

impl Phase {
    fn run(
        conns: &mut [TcpStream],
        mix: &mut Mix,
        seed: u64,
        rate: f64,
        seconds: f64,
        keep: &(dyn Fn(usize) -> bool + Sync),
    ) -> Phase {
        let due = arrivals(seed, rate, seconds);
        let requests = mix.take(due.len());
        let wires: Vec<&[u8]> = requests.iter().map(|r| r.wire.as_slice()).collect();
        let slots: Vec<Slot> = due
            .iter()
            .enumerate()
            .map(|(index, &due_s)| Slot { due_s, index })
            .collect();
        // A rung past capacity builds a backlog of at most a few times
        // its length; waiting that out keeps the connections usable.
        let drain = DRAIN.min(Duration::from_secs_f64(1.0 + 3.0 * seconds));
        let outcomes = open_loop(conns, &slots, &wires, keep, drain);
        Phase {
            requests,
            slots,
            outcomes,
            seconds,
        }
    }

    /// The phase's `p99`: see [`windowed_tail`].
    fn p99_ms(&self) -> Option<(f64, usize)> {
        windowed_tail(&self.latencies(None)).map(|(t, n)| (t * 1e3, n))
    }

    fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.failed()).count()
    }

    /// Latencies in seconds; a failed request counts as taking the whole
    /// phase plus the longest drain allowance, so it misses any limit.
    fn latencies(&self, class: Option<&[Class]>) -> Vec<f64> {
        let miss = self.seconds + DRAIN.as_secs_f64();
        self.outcomes
            .iter()
            .filter(|o| class.is_none_or(|c| c.contains(&self.requests[o.index].class)))
            .map(|o| {
                if o.failed() {
                    miss
                } else {
                    o.latency_s.unwrap_or(miss)
                }
            })
            .collect()
    }

    /// Seconds from the last scheduled send to the last response: a
    /// growing backlog shows as a long drain.
    fn drain_s(&self) -> f64 {
        let last_due = self.slots.last().map_or(0.0, |s| s.due_s);
        self.outcomes
            .iter()
            .map(|o| self.slots[o.index].due_s + o.latency_or_miss())
            .fold(last_due, f64::max)
            - last_due
    }
}

/// A connection set spread over the server's workers, with the
/// placement noted.
fn connect(ctx: &Ctx, server: &ServerProc, report: &mut Report) -> io::Result<Vec<TcpStream>> {
    let (conns, placed, redials) = dial_spread(server.addr, ctx.nproc, ctx.nproc)?;
    report.note(format!(
        "placement: {} connections on workers {placed:?} of {} ({redials} redials)",
        conns.len(),
        ctx.nproc
    ));
    Ok(conns)
}

/// Seeded choice of the responses kept for the byte-for-byte check.
fn checked(seed: u64, share: f64) -> impl Fn(usize) -> bool + Sync {
    move |i: usize| {
        let mut rng = acs_llm::rng::SplitMix64::new(seed ^ (i as u64).wrapping_mul(0x9e37_79b9));
        rng.next_f64() < share
    }
}

/// Every answered request must get 200, or 503 when the server sheds
/// load: a failure, but not a wrong answer.
fn check_statuses(phase: &Phase, report: &mut Report) {
    for o in &phase.outcomes {
        if o.latency_s.is_some() && !matches!(o.status, 200 | 503) {
            let r = &phase.requests[o.index];
            report.wrong(format!("{} {} answered {}", r.method, r.path, o.status));
        }
    }
}

/// Check every kept response against `acs_serve` in process, on a fresh
/// state with the server's cache capacity. What-if responses are
/// compared after de-chunking both sides.
fn check_bodies(phase: &Phase, report: &mut Report) {
    let state = AppState::new(acs_serve::ServeConfig::default().cache_capacity);
    let mut checked = 0;
    for o in &phase.outcomes {
        let Some(got) = &o.response else { continue };
        if o.status != 200 {
            continue; // already counted as failed
        }
        let r = &phase.requests[o.index];
        let want = replay::answer(&state, r);
        checked += 1;
        if want.0 != 200 || want.1 != got.body {
            report.wrong(format!(
                "{} {} body differs from the in-process answer (status {}, {} vs {} bytes)",
                r.method,
                r.path,
                want.0,
                got.body.len(),
                want.1.len()
            ));
        }
    }
    report.note(format!(
        "checked {checked} response bodies byte for byte against acs_serve::handle"
    ));
}

fn p50_ms(phase: &Phase, classes: &[Class]) -> Option<f64> {
    let v = phase.latencies(Some(classes));
    (!v.is_empty()).then(|| median(&v) * 1e3)
}

/// End-to-end run.
pub fn run(ctx: &Ctx, workload: Workload) -> io::Result<Report> {
    let plan = plan(workload);
    let mut report = Report::new();
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_RUNS {
        // Stop the previous server first, so each set-up has the
        // processors to itself.
        if let Some(old) = server.take() {
            ServerProc::stop(old)?;
        }
        let (s, secs) = set_up(ctx, workload)?;
        setups.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let mut conns = connect(ctx, &server, &mut report)?;
    let mut mix = Mix::new(workload, ctx.seed);

    let nominal_s = ctx.seconds * NOMINAL_SHARE;
    let keep = checked(ctx.seed, plan.check_share);
    let nominal = Phase::run(
        &mut conns,
        &mut mix,
        ctx.seed,
        plan.nominal_rps,
        nominal_s,
        &keep,
    );
    // Read before the ladder, whose length varies, adds cache entries.
    let rss_kib = vm_hwm_kib(server.pid());

    // The ladder: fixed rates, each held for one rung's time.
    let rung_s = ctx.seconds * (1.0 - NOMINAL_SHARE) / MAX_RUNGS as f64;
    let mut rung_seed = ctx.seed;
    let mut rungs = Vec::new();
    let (max_rate, _) = ladder(plan.ladder_base, |rate| {
        // A rung that misses is tried once more: a host stall must not
        // end the search.
        (0..2).any(|_| {
            std::thread::sleep(Duration::from_millis(20));
            rung_seed = rung_seed.wrapping_add(1);
            let phase = Phase::run(&mut conns, &mut mix, rung_seed, rate, rung_s, &|_| false);
            if phase.outcomes.iter().any(|o| o.latency_s.is_none()) {
                // A broken connection: let the server finish what it
                // holds, then carry on over fresh connections.
                std::thread::sleep(Duration::from_secs(1));
                match dial_spread(server.addr, ctx.nproc, ctx.nproc) {
                    Ok((fresh, _, _)) => conns = fresh,
                    Err(e) => eprintln!("perfbench: redial failed: {e}"),
                }
            }
            let p99 = phase.p99_ms().map_or(f64::INFINITY, |(t, _)| t);
            let drain_ms = phase.drain_s() * 1e3;
            let pass = phase.failed() == 0 && p99 <= plan.limit_ms && drain_ms <= plan.limit_ms;
            rungs.push(format!(
                "{rate:.0}:{}(p99 {p99:.2} ms, drain {drain_ms:.2} ms, {} failed)",
                if pass { "pass" } else { "miss" },
                phase.failed()
            ));
            pass
        })
    });
    drop(conns);
    server.stop()?;

    check_statuses(&nominal, &mut report);
    check_bodies(&nominal, &mut report);
    report.attempted = nominal.outcomes.len() as u64;
    report.failed = nominal.failed() as u64;

    let all = nominal.latencies(None);
    let t = tail(&all).expect("the nominal phase sends requests");
    let (p99, windows) = nominal.p99_ms().expect("the nominal phase sends requests");
    report.set("setup_s", Some(median_of_batch_means(&setups, SETUP_BATCH)));
    report.set("p50_ms", Some(median(&all) * 1e3));
    report.set("peak_rss_mib", rss_kib.map(|k| k as f64 / 1024.0));
    report.note(format!(
        "p99_ms {p99:.6} ms at {} rps: median over {windows} windows of 1000 requests of each \
         window's p99; whole phase: p{:.2} of {} requests ({} beyond) = {:.4} ms",
        plan.nominal_rps,
        t.percentile,
        t.samples,
        t.beyond,
        t.value * 1e3,
    ));
    report.note(format!(
        "max_rate_rps {max_rate:.1} 1/s: highest ladder rate with p99 within {} ms, no \
         failures and no growing backlog",
        plan.limit_ms
    ));
    report.note(format!(
        "error_rate {:.6} ({} failed / {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    report.note(format!(
        "ladder ({rung_s:.2} s per rung): {}",
        rungs.join(" ")
    ));
    for class in Class::ALL {
        if let Some(p50) = p50_ms(&nominal, &[class]) {
            report.note(format!("{}_p50_ms {p50:.4} ms", class.name()));
        }
    }
    let whatifs: Vec<&Outcome> = nominal
        .outcomes
        .iter()
        .filter(|o| nominal.requests[o.index].class == Class::Whatif && !o.failed())
        .collect();
    if !whatifs.is_empty() {
        let first: Vec<f64> = whatifs.iter().filter_map(|o| o.first_chunk_s).collect();
        let variants: usize = whatifs
            .iter()
            .map(|o| nominal.requests[o.index].points)
            .sum();
        let busy: f64 = whatifs.iter().filter_map(|o| o.latency_s).sum();
        report.note(format!("whatif_first_ms {:.4} ms", median(&first) * 1e3));
        report.note(format!(
            "whatif_variants_per_s {:.2} 1/s",
            variants as f64 / busy
        ));
    }
    let late = tail(
        &nominal
            .outcomes
            .iter()
            .map(|o| o.late_s)
            .collect::<Vec<_>>(),
    )
    .map_or(0.0, |t| t.value * 1e3);
    report.note(format!("generator lateness p99 {late:.4} ms"));
    report.note(format!(
        "setup: median of batch means of {SETUP_RUNS} server starts, {SETUP_BATCH} a batch ({})",
        spread_note(&setups)
    ));
    Ok(report)
}

/// Traced run: a nominal-rate phase against a live server for the
/// metrics only a server has (cache and transport figures, read as
/// `/v1/metrics` deltas), then the same inputs replayed in process.
pub fn traced(ctx: &Ctx, workload: Workload) -> io::Result<Report> {
    let plan = plan(workload);
    let mut report = Report::new();
    let (server, _) = set_up(ctx, workload)?;
    let mut conns = connect(ctx, &server, &mut report)?;
    let mut mix = Mix::new(workload, ctx.seed);
    let before = Metrics::fetch(server.addr)?;
    let live_s = ctx.seconds * NOMINAL_SHARE;
    let phase = Phase::run(
        &mut conns,
        &mut mix,
        ctx.seed,
        plan.nominal_rps,
        live_s,
        &|_| false,
    );
    check_statuses(&phase, &mut report);
    let after = Metrics::fetch(server.addr)?;
    drop(conns);
    server.stop()?;
    report.attempted = phase.outcomes.len() as u64;
    report.failed = phase.failed() as u64;

    live_layers(&phase, &before, &after, &mut report);

    let setup = setup_requests(workload);
    let replayed = &phase.requests[..phase.requests.len().min(MAX_REPLAY)];
    let tracer = replay::replay(replayed, &setup, &mut report);
    let path = ctx
        .work_dir
        .join(format!("trace-{}-seed{}.jsonl", workload.name(), ctx.seed));
    std::fs::write(&path, tracer.to_jsonl())?;
    report.note(format!("spans written to {}", path.display()));
    Ok(report)
}

fn ratio(num: Option<f64>, den: Option<f64>) -> Option<Option<f64>> {
    match (num, den) {
        (Some(_), Some(0.0)) => None, // not reached
        (Some(n), Some(d)) => Some(Some(n / d)),
        _ => Some(None), // absent
    }
}

/// Per-layer figures read from the live server.
fn live_layers(phase: &Phase, before: &Metrics, after: &Metrics, report: &mut Report) {
    let d = |path: &str| Metrics::delta(before, after, path);
    let attempted = phase.outcomes.len() as f64;
    for (cache, hit_name, evict_name) in [
        ("screen", "cache.screen.hit_ratio", "cache.screen.evictions"),
        (
            "simulate",
            "cache.simulate.hit_ratio",
            "cache.simulate.evictions",
        ),
        ("whatif", "cache.whatif.hit_ratio", "cache.whatif.evictions"),
    ] {
        let hits = d(&format!("caches.{cache}.hits"));
        let lookups = hits
            .zip(d(&format!("caches.{cache}.misses")))
            .map(|(h, m)| h + m);
        if let Some(v) = ratio(hits, lookups) {
            report.set(hit_name, v);
            report.set(evict_name, d(&format!("caches.{cache}.evictions")));
        }
    }
    let posts = d("requests.screen")
        .zip(d("requests.simulate"))
        .map(|(a, b)| a + b);
    if let Some(v) = ratio(d("caches.raw.hits"), posts) {
        report.set("cache.raw.hit_ratio", v);
    }
    let steps = d("caches.sim_steps.hits")
        .zip(d("caches.sim_steps.misses"))
        .map(|(h, m)| h + m);
    if let Some(v) = ratio(d("caches.sim_steps.hits"), steps) {
        report.set("sim.stepcache_hit_ratio", v);
    }
    report.set(
        "serve.reactor_events_per_req",
        d("reactor.events").map(|e| e / attempted),
    );
    // `queue.shed` already counts the expensive-class sheds.
    report.set("serve.shed_share", d("queue.shed").map(|s| s / attempted));
    for (name, classes) in [
        ("serve.transport_devices_us", &[Class::Devices][..]),
        (
            "serve.transport_screen_us",
            &[Class::Screen, Class::Grid][..],
        ),
        ("serve.transport_simulate_us", &[Class::Simulate][..]),
        ("serve.transport_whatif_us", &[Class::Whatif][..]),
    ] {
        let Some(client_ms) = p50_ms(phase, classes) else {
            continue;
        };
        let server_us = after.get(&format!("latency_us.{}.p50_us", classes[0].endpoint()));
        report.set(name, server_us.map(|s| client_ms * 1e3 - s));
    }
    let late: Vec<f64> = phase.outcomes.iter().map(|o| o.late_s).collect();
    report.set("bench.gen_late_p99_ms", tail(&late).map(|t| t.value * 1e3));
    report.set("bench.offered_rps", Some(attempted / phase.seconds));
    let ok = phase.outcomes.iter().filter(|o| !o.failed()).count() as f64;
    let span = phase.slots.last().map_or(0.0, |s| s.due_s) + phase.drain_s()
        - phase.slots.first().map_or(0.0, |s| s.due_s);
    report.set("bench.achieved_rps", Some(ok / span.max(f64::MIN_POSITIVE)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_doubles_then_climbs_in_twentieths() {
        let (best, tried) = ladder(10.0, |r| r <= 47.0);
        let rates: Vec<f64> = tried.iter().map(|t| t.0).collect();
        assert_eq!(rates, vec![10.0, 20.0, 40.0, 80.0, 42.0, 44.0, 46.0, 48.0]);
        assert!((best - 46.0).abs() < 1e-9);
        assert_eq!(ladder(5.0, |_| false).0, 0.0);
        // Every rung passes: the search stops at the rung budget.
        let (best, tried) = ladder(1.0, |_| true);
        assert_eq!(tried.len(), MAX_RUNGS);
        assert_eq!(best, tried.last().unwrap().0);
    }
}
