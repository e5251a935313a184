//! The in-process replay behind the API workloads' traced run.
//!
//! Each request goes through `parse_request_bytes` and the handler the
//! event loop calls (`handle`, or `handle_whatif_streaming`) on a fresh
//! `AppState`, inside spans. Spans sit only in this file, around calls
//! into the crates' public entry points: the layers a handler runs
//! internally are timed by making the same calls again beside it, with
//! the same inputs and the same warm state, and whatever the handler
//! spent outside them is its residual. Layers reached only through
//! entry points slated for removal (the step-cost cache, the lattice
//! evaluator) are read by name from the telemetry registry instead.

use crate::client::{parse_response, Frame};
use crate::inputs::{Class, Request};
use crate::report::{registry_counter, registry_p50, Report};
use crate::spans::{Span, Tracer};
use acs_dse::{DseRunner, EvaluatedDesign, SweepSpec};
use acs_errors::json::parse;
use acs_llm::{LengthDistribution, ModelConfig, RequestTrace, WorkloadConfig};
use acs_serve::http::{parse_request_bytes, HttpRequest, Parsed};
use acs_serve::{handle, handlers::handle_whatif_streaming, AppState};
use acs_sim::{simulate_serving, PlanStore, ServingConfig, Simulator};
use acs_whatif::{WhatIfEngine, WhatIfRequest};
use std::collections::HashMap;
use std::sync::Arc;

/// The status and payload of a chunked response written by
/// `handle_whatif_streaming`.
fn dechunk(wire: &[u8]) -> Option<(u16, Vec<u8>)> {
    match parse_response(wire) {
        Frame::Complete { response, .. } => Some((response.status, response.body)),
        _ => None,
    }
}

/// The status and payload `acs_serve` gives `r` in process (what-if
/// through the streaming entry point, de-chunked).
#[must_use]
pub fn answer(state: &AppState, r: &Request) -> (u16, Vec<u8>) {
    let request = HttpRequest {
        method: r.method.to_owned(),
        path: r.path.clone(),
        body: r.body.clone(),
    };
    if r.class == Class::Whatif {
        let mut wire = Vec::new();
        match handle_whatif_streaming(state, &request, &mut wire, true) {
            Ok(_) => dechunk(&wire).unwrap_or((0, wire)),
            Err((status, body)) => (status, body.into_bytes()),
        }
    } else {
        let (status, body) = handle(state, &request);
        (status, body.into_bytes())
    }
}

/// Per-class sums over the traced pass.
#[derive(Default)]
struct ClassSums {
    requests: usize,
    handle_s: f64,
    /// Time in the layer calls made beside the handler.
    layers_s: f64,
    points: usize,
}

/// Mirrors of the state the handlers keep, so the layer calls made
/// beside them see the same warm or cold state.
struct Mirror {
    plans: PlanStore,
    engine: WhatIfEngine,
    runner: DseRunner,
    fleets: HashMap<u64, Vec<EvaluatedDesign>>,
}

/// Work counts of the traced pass.
#[derive(Default)]
struct Tally {
    classes: HashMap<Class, ClassSums>,
    /// `sum(variants * screened entries)` over what-if engine runs.
    classifications: f64,
    parse_kib: f64,
    encode_kib: f64,
}

const CACHE_SCREEN: usize = 0;
const CACHE_SIMULATE: usize = 1;
const CACHE_WHATIF: usize = 3;

fn misses(state: &AppState, cache: usize) -> u64 {
    state.cache_stats()[cache].misses
}

/// One request of the traced pass; returns the handler's seconds.
fn traced_request(
    state: &AppState,
    mirror: &mut Mirror,
    tracer: &mut Tracer,
    tally: &mut Tally,
    r: &Request,
    req: u64,
    report: &mut Report,
) -> f64 {
    let registry = acs_telemetry::global();
    let root = tracer.open("request", None, req);
    let parsed = tracer.time("http.parse", Some(root), req, || {
        parse_request_bytes(&r.wire)
    });
    let Parsed::Complete { request, .. } = parsed else {
        report.wrong(format!(
            "parse_request_bytes did not frame {} {}",
            r.method, r.path
        ));
        tracer.close(root);
        return 0.0;
    };
    let cache = match r.class {
        Class::Screen | Class::Grid => Some(CACHE_SCREEN),
        Class::Simulate => Some(CACHE_SIMULATE),
        Class::Whatif => Some(CACHE_WHATIF),
        Class::Devices => None,
    };
    let misses_before = cache.map(|c| misses(state, c));

    registry.enable();
    let h = tracer.open("handle", Some(root), req);
    let (status, body) = if r.class == Class::Whatif {
        let mut out = Vec::new();
        match handle_whatif_streaming(state, &request, &mut out, true) {
            Ok(_) => dechunk(&out).unwrap_or((0, out)),
            Err((s, b)) => (s, b.into_bytes()),
        }
    } else {
        let (s, b) = handle(state, &request);
        (s, b.into_bytes())
    };
    let handle_s = tracer.close(h);
    registry.disable();
    if status != 200 {
        report.wrong(format!(
            "in-process {} {} answered {status}",
            r.method, r.path
        ));
    }
    let missed = cache
        .zip(misses_before)
        .is_some_and(|(c, m)| misses(state, c) > m);

    // The layers, called beside the handler with its inputs: each is a
    // child span of the request.
    let value = (r.method == "POST").then(|| {
        tally.parse_kib += r.body.len() as f64 / 1024.0;
        tracer.time("json.parse", Some(root), req, || parse(&r.body).ok())
    });
    let value = value.flatten();
    // The handler encodes a response only when it computed one.
    let encodes = match r.class {
        Class::Devices => true,
        Class::Screen | Class::Grid | Class::Simulate => missed,
        Class::Whatif => false, // record by record, inside the engine
    };
    if let (Class::Simulate, Some(spec)) = (r.class, &r.sim) {
        let model = spec.model_config();
        let workload = WorkloadConfig::new(spec.batch, spec.input_len, spec.output_len);
        let config = spec.device_config().expect("generated configs build");
        let plans = tracer
            .time("sim.plan", Some(root), req, || {
                mirror.plans.get_or_build(
                    &model,
                    &workload,
                    spec.device_count,
                    config.datatype().bytes(),
                )
            })
            .expect("generated simulate requests lower to plans");
        if missed {
            let sim = tracer.time("sim.phase", Some(root), req, || {
                let system = acs_hw::system::SystemConfig::new(config.clone(), spec.device_count)
                    .expect("generated node shapes are valid");
                let sim = Simulator::new(system);
                let priced = sim.try_ttft_planned(&plans.prefill).is_ok()
                    && sim.try_tbt_planned(&plans.decode).is_ok();
                assert!(priced, "generated simulate requests price");
                sim
            });
            let trace = tracer
                .time("sim.trace", Some(root), req, || {
                    RequestTrace::synthetic(
                        spec.rate_rps,
                        spec.duration_s,
                        LengthDistribution::chat_prompts(),
                        LengthDistribution::chat_outputs(),
                        spec.seed,
                    )
                })
                .expect("generated traces are valid");
            tracer.time("sim.serving", Some(root), req, || {
                std::hint::black_box(simulate_serving(
                    &sim,
                    &model,
                    &trace,
                    ServingConfig {
                        max_batch: spec.max_batch,
                    },
                ))
            });
        }
    }
    if r.class == Class::Whatif && missed {
        if let Some(request) = value
            .as_ref()
            .and_then(|v| WhatIfRequest::from_json(v).ok())
        {
            let runner = &mirror.runner;
            // Priced outside any span: the engine runs over a ready fleet.
            let fleet = mirror
                .fleets
                .entry(request.tpp_target.to_bits())
                .or_insert_with(|| runner.run(&SweepSpec::synthetic_fleet(), request.tpp_target));
            let engine = tracer.open("whatif.engine", Some(root), req);
            let summary = mirror
                .engine
                .run_streaming(&request.grid, fleet, |_, record| {
                    let line = tracer.time("json.encode", Some(engine), req, || record.to_json());
                    tally.encode_kib += line.len() as f64 / 1024.0;
                    Ok(())
                });
            tracer.close(engine);
            match summary {
                Ok(s) => {
                    tally.classifications += (s.variants * (s.devices + s.fleet_designs)) as f64;
                }
                Err(e) => report.wrong(format!("what-if engine failed: {e}")),
            }
        }
    }
    if encodes {
        if let Ok(v) = parse(&String::from_utf8_lossy(&body)) {
            let text = tracer.time("json.encode", Some(root), req, || v.to_json());
            tally.encode_kib += text.len() as f64 / 1024.0;
        }
    }
    tracer.close(root);
    let layers_s: f64 = tracer.spans()[root + 1..]
        .iter()
        .filter(|s| s.parent == Some(root) && !matches!(s.name, "http.parse" | "handle"))
        .map(Span::duration)
        .sum();
    let sums = tally.classes.entry(r.class).or_default();
    sums.requests += 1;
    sums.handle_s += handle_s;
    sums.layers_s += layers_s;
    sums.points += r.points;
    handle_s
}

/// Replay `requests` (after `setup`, which is not measured) twice on
/// fresh states: once untraced, timing the handler alone, and once
/// traced, with spans, the layer calls and the telemetry registry on.
/// Sets the per-layer metrics and returns the spans.
pub fn replay(requests: &[Arc<Request>], setup: &[Arc<Request>], report: &mut Report) -> Tracer {
    let capacity = acs_serve::ServeConfig::default().cache_capacity;
    let registry = acs_telemetry::global();

    registry.disable();
    let state = AppState::new(capacity);
    for r in setup {
        let _ = answer(&state, r);
    }
    let mut untraced_s = 0.0;
    for r in requests {
        let t0 = std::time::Instant::now();
        let _ = answer(&state, r);
        untraced_s += t0.elapsed().as_secs_f64();
    }
    drop(state);

    let state = AppState::new(capacity);
    let mut mirror = Mirror {
        // As in `AppState::new`.
        plans: PlanStore::new(64),
        engine: WhatIfEngine::paper_default(),
        runner: DseRunner::new(ModelConfig::llama3_8b(), WorkloadConfig::paper_default()),
        fleets: HashMap::new(),
    };
    // Set-up runs through the same calls, so state and mirrors warm
    // alike, but is left out of every figure below.
    let (mut setup_tracer, mut setup_tally) = (Tracer::new(), Tally::default());
    for (i, r) in setup.iter().enumerate() {
        traced_request(
            &state,
            &mut mirror,
            &mut setup_tracer,
            &mut setup_tally,
            r,
            i as u64,
            report,
        );
    }
    let mut tracer = Tracer::new();
    let mut tally = Tally::default();
    registry.reset();
    let mut traced_s = 0.0;
    for (i, r) in requests.iter().enumerate() {
        traced_s += traced_request(
            &state,
            &mut mirror,
            &mut tracer,
            &mut tally,
            r,
            i as u64,
            report,
        );
    }

    let mean = |name: &str| {
        let (total, n) = tracer.total(name);
        (n > 0).then(|| total / n as f64)
    };
    for (name, span) in [
        ("http.parse_us", "http.parse"),
        ("sim.plan_us", "sim.plan"),
        ("sim.phase_us", "sim.phase"),
        ("sim.trace_us", "sim.trace"),
        ("sim.serving_us", "sim.serving"),
    ] {
        if let Some(m) = mean(span) {
            report.set(name, Some(m * 1e6));
        }
    }
    let engines: Vec<usize> = (0..tracer.spans().len())
        .filter(|&i| tracer.spans()[i].name == "whatif.engine")
        .collect();
    if !engines.is_empty() {
        let self_s: f64 = engines.iter().map(|&i| tracer.self_time(i)).sum();
        report.set(
            "whatif.engine_ms",
            Some(self_s / engines.len() as f64 * 1e3),
        );
        report.set("whatif.variant_us", registry_p50("whatif.variant_us"));
        report.set(
            "whatif.pinned_share",
            registry_counter("whatif.prune.classify_skipped")
                .map(|skipped| skipped as f64 / tally.classifications.max(1.0)),
        );
    }
    if tally.parse_kib > 0.0 {
        let (parse_s, _) = tracer.total("json.parse");
        report.set(
            "json.parse_us_per_kb",
            Some(parse_s * 1e6 / tally.parse_kib),
        );
    }
    if tally.encode_kib > 0.0 {
        let (encode_s, _) = tracer.total("json.encode");
        report.set(
            "json.encode_us_per_kb",
            Some(encode_s * 1e6 / tally.encode_kib),
        );
    }
    let reaches_dse =
        tally.classes.contains_key(&Class::Grid) || tally.classes.contains_key(&Class::Whatif);
    if reaches_dse {
        let hit = registry_counter("dse.lattice.cell_hit");
        let built = registry_counter("dse.lattice.cell_built");
        report.set(
            "dse.lattice_cell_hit_ratio",
            hit.zip(built)
                .map(|(h, b)| h as f64 / ((h + b) as f64).max(1.0)),
        );
    }
    let mut table = Vec::new();
    for class in Class::ALL {
        let Some(s) = tally.classes.get(&class) else {
            continue;
        };
        let n = s.requests as f64;
        let residual_s = s.handle_s - s.layers_s;
        let (handle_name, residual_name, residual_scale) = match class {
            Class::Devices => ("handlers.devices_us", "handlers.devices_residual_us", 1e6),
            Class::Screen => ("handlers.screen_us", "handlers.screen_residual_us", 1e6),
            Class::Simulate => ("handlers.simulate_us", "handlers.simulate_residual_ms", 1e3),
            Class::Grid => ("handlers.grid_us", "handlers.grid_residual_us", 1e6),
            Class::Whatif => ("handlers.whatif_us", "handlers.whatif_residual_ms", 1e3),
        };
        report.set(handle_name, Some(s.handle_s / n * 1e6));
        report.set(residual_name, Some(residual_s / n * residual_scale));
        if class == Class::Grid {
            report.set("dse.grid_points_per_s", Some(s.points as f64 / s.handle_s));
        }
        table.push(format!(
            "{}: handle {:.3} ms = layers {:.3} ms + residual {:.3} ms over {} requests",
            class.name(),
            s.handle_s * 1e3,
            s.layers_s * 1e3,
            residual_s * 1e3,
            s.requests
        ));
    }
    report.note(format!(
        "in-process handle() time by class: {}",
        table.join("; ")
    ));
    report.set(
        "bench.trace_overhead_pct",
        Some((traced_s - untraced_s) / untraced_s * 100.0),
    );
    report.note(format!(
        "in-process replay of {} requests: handle() {:.3} ms untraced, {:.3} ms traced",
        requests.len(),
        untraced_s * 1e3,
        traced_s * 1e3
    ));
    tracer
}
