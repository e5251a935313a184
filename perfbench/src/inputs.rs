//! Seeded workload inputs. Everything the programs receive is made here
//! from the `--seed` argument: the same seed gives byte-identical
//! requests and arrival times, another seed gives others.

use acs_devices::GpuDatabase;
use acs_errors::json::{object, Value};
use acs_hw::{DeviceConfig, SystolicDims};
use acs_llm::rng::SplitMix64;
use acs_llm::ModelConfig;
use std::sync::Arc;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Back-to-back `acs-repro all` processes, one closed-loop client.
    Paper,
    /// Open-loop cheap, mostly repeated requests against `acs-serve`.
    Interactive,
    /// Open-loop expensive, mostly unique requests against `acs-serve`.
    Analysis,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::Interactive, Workload::Analysis];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Interactive => "api-interactive",
            Workload::Analysis => "api-analysis",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Request classes, each with its own latency figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Devices,
    Screen,
    Simulate,
    Grid,
    Whatif,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Devices,
        Class::Screen,
        Class::Simulate,
        Class::Grid,
        Class::Whatif,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Class::Devices => "devices",
            Class::Screen => "screen",
            Class::Simulate => "simulate",
            Class::Grid => "grid",
            Class::Whatif => "whatif",
        }
    }

    /// The server's `latency_us` endpoint label for this class (grids
    /// are `/v1/screen` requests).
    #[must_use]
    pub fn endpoint(self) -> &'static str {
        match self {
            Class::Grid => "screen",
            other => other.name(),
        }
    }
}

/// The parameters of one `/v1/simulate` body, kept so the traced run can
/// make the same simulator calls the handler makes.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    pub name: String,
    pub core_count: u32,
    pub lanes_per_core: u32,
    pub systolic_dim: u32,
    pub l2_mib: u32,
    pub hbm_tb_s: f64,
    pub device_bw_gb_s: f64,
    pub model: &'static str,
    pub batch: u64,
    pub input_len: u64,
    pub output_len: u64,
    pub device_count: u32,
    pub rate_rps: f64,
    pub duration_s: f64,
    pub seed: u64,
    pub max_batch: usize,
}

impl SimSpec {
    fn config_value(&self) -> Value {
        let n = |x: u32| Value::Number(f64::from(x));
        object(vec![
            ("name", Value::String(self.name.clone())),
            ("core_count", n(self.core_count)),
            ("lanes_per_core", n(self.lanes_per_core)),
            ("systolic_dim", n(self.systolic_dim)),
            ("l2_mib", n(self.l2_mib)),
            ("hbm_tb_s", Value::Number(self.hbm_tb_s)),
            ("device_bw_gb_s", Value::Number(self.device_bw_gb_s)),
        ])
    }

    fn body(&self) -> String {
        let n = |x: u64| Value::Number(x as f64);
        object(vec![
            ("config", self.config_value()),
            ("model", Value::String(self.model.to_owned())),
            (
                "workload",
                object(vec![
                    ("batch", n(self.batch)),
                    ("input_len", n(self.input_len)),
                    ("output_len", n(self.output_len)),
                ]),
            ),
            ("device_count", n(u64::from(self.device_count))),
            (
                "trace",
                object(vec![
                    ("rate_rps", Value::Number(self.rate_rps)),
                    ("duration_s", Value::Number(self.duration_s)),
                    ("seed", n(self.seed)),
                ]),
            ),
            ("max_batch", n(self.max_batch as u64)),
        ])
        .to_json()
    }

    /// The accelerator the service builds from this body's `config`.
    pub fn device_config(&self) -> Result<DeviceConfig, acs_hw::error::HwError> {
        DeviceConfig::a100_like()
            .to_builder()
            .name(self.name.clone())
            .core_count(self.core_count)
            .lanes_per_core(self.lanes_per_core)
            .systolic(SystolicDims {
                x: self.systolic_dim,
                y: self.systolic_dim,
            })
            .l2_mib(self.l2_mib)
            .hbm_bandwidth_tb_s(self.hbm_tb_s)
            .device_bandwidth_gb_s(self.device_bw_gb_s)
            .build()
    }

    #[must_use]
    pub fn model_config(&self) -> ModelConfig {
        match self.model {
            "gpt3-13b" => ModelConfig::gpt3_13b(),
            _ => ModelConfig::llama3_8b(),
        }
    }
}

/// One request as sent on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub class: Class,
    pub method: &'static str,
    pub path: String,
    pub body: String,
    /// Set for `/v1/simulate` requests.
    pub sim: Option<SimSpec>,
    /// Grid points or what-if variants the request asks for (0 otherwise).
    pub points: usize,
    /// The HTTP/1.1 request bytes (keep-alive).
    pub wire: Vec<u8>,
}

impl Request {
    fn new(class: Class, method: &'static str, path: String, body: String) -> Self {
        let wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        Request {
            class,
            method,
            path,
            body,
            sim: None,
            points: 0,
            wire,
        }
    }

    fn get(class: Class, path: String) -> Self {
        Request::new(class, "GET", path, String::new())
    }

    fn post(class: Class, path: &str, body: String) -> Self {
        Request::new(class, "POST", path.to_owned(), body)
    }

    fn simulate(spec: SimSpec) -> Self {
        Request {
            sim: Some(spec.clone()),
            ..Request::post(Class::Simulate, "/v1/simulate", spec.body())
        }
    }
}

fn pick<T: Copy>(rng: &mut SplitMix64, items: &[T]) -> T {
    items[(rng.next_u64() % items.len() as u64) as usize]
}

/// Index into `n` items, skewed towards the front (popular items).
fn popular(rng: &mut SplitMix64, n: usize) -> usize {
    let u = rng.next_f64();
    ((u * u * n as f64) as usize).min(n - 1)
}

/// `k` distinct values of `pool`, in pool order.
fn subset<T: Copy>(rng: &mut SplitMix64, pool: &[T], k: usize) -> Vec<T> {
    let mut idx: Vec<usize> = (0..pool.len()).collect();
    for i in (1..idx.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        idx.swap(i, j);
    }
    let mut chosen = idx[..k.min(pool.len())].to_vec();
    chosen.sort_unstable();
    chosen.into_iter().map(|i| pool[i]).collect()
}

fn percent_encode(s: &str) -> String {
    s.bytes()
        .map(|b| {
            if b.is_ascii_alphanumeric() || b"-._~".contains(&b) {
                (b as char).to_string()
            } else {
                format!("%{b:02X}")
            }
        })
        .collect()
}

fn numbers(xs: &[f64]) -> Value {
    Value::Array(xs.iter().copied().map(Value::Number).collect())
}

/// The few `/v1/simulate` bodies every interactive client polls.
fn popular_simulations() -> Vec<SimSpec> {
    (0..4)
        .map(|i| SimSpec {
            name: "A100-like".to_owned(),
            core_count: 108,
            lanes_per_core: 4,
            systolic_dim: 16,
            l2_mib: 40,
            hbm_tb_s: 2.0,
            device_bw_gb_s: 600.0,
            model: "llama3-8b",
            batch: 8,
            input_len: 512,
            output_len: 64,
            device_count: 4,
            rate_rps: 4.0,
            duration_s: 5.0,
            seed: 7 + i,
            max_batch: 32,
        })
        .collect()
}

/// A shuffled deck: hands out every card of `cards` once, in seeded
/// order, then reshuffles. Dealing kinds and sizes from decks makes every
/// run send them in exact proportion.
struct Deck<T: Copy + 'static> {
    cards: &'static [T],
    left: Vec<T>,
}

impl<T: Copy + 'static> Deck<T> {
    fn new(cards: &'static [T]) -> Self {
        Deck {
            cards,
            left: Vec::new(),
        }
    }

    fn deal(&mut self, rng: &mut SplitMix64) -> T {
        if self.left.is_empty() {
            self.left.extend_from_slice(self.cards);
            for i in (1..self.left.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.left.swap(i, j);
            }
        }
        self.left.pop().expect("refilled above")
    }
}

/// Interactive request kinds per 20: 6 lists, 5 lookups, 6 named
/// screens, 2 fresh config screens, 1 popular simulate.
const INTERACTIVE_KINDS: [u8; 20] = [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 4];
/// Analysis request kinds per 10: 4 unique simulates, 3 grids, 2
/// what-ifs, 1 repeat.
const ANALYSIS_KINDS: [u8; 10] = [0, 0, 0, 0, 1, 1, 1, 2, 2, 3];

/// The scenario names a grid may ask for (the service's built-ins).
const SCENARIOS: [&str; 6] = [
    "dense-llama3-fp16-tp4",
    "dense-gpt3-fp16-tp4",
    "dense-llama3-70b-int4-tp8-pp4",
    "moe-mixtral-fp16-tp4-ep4",
    "moe-mixtral-fp8-tp4-ep8",
    "hier-mixtral-fp16-tp8-ep2-pp2",
];

/// A seeded endless request stream for one API workload.
pub struct Mix {
    workload: Workload,
    seed: u64,
    rng: SplitMix64,
    made: Vec<Arc<Request>>,
    kinds: Deck<u8>,
    grid_points: Deck<usize>,
    whatif_variants: Deck<usize>,
    /// 7 Llama 3 8B : 3 GPT-3 13B.
    models: Deck<&'static str>,
    devices: Vec<String>,
    /// The interactive requests that repeat byte for byte, built once:
    /// the device list, then each device's lookup and named screen.
    lists: Arc<Request>,
    lookups: Vec<Arc<Request>>,
    named_screens: Vec<Arc<Request>>,
    popular_sims: Vec<Arc<Request>>,
}

impl Mix {
    #[must_use]
    pub fn new(workload: Workload, seed: u64) -> Self {
        let devices: Vec<String> = GpuDatabase::curated_65()
            .iter()
            .map(|r| r.name.to_string())
            .collect();
        let lookups = devices
            .iter()
            .map(|d| {
                Arc::new(Request::get(
                    Class::Devices,
                    format!("/v1/devices/{}", percent_encode(d)),
                ))
            })
            .collect();
        let named_screens = devices
            .iter()
            .map(|d| {
                let body = object(vec![("device", Value::String(d.clone()))]).to_json();
                Arc::new(Request::post(Class::Screen, "/v1/screen", body))
            })
            .collect();
        Mix {
            workload,
            seed,
            rng: SplitMix64::new(seed ^ 0x6d69_7865_645f_7265),
            made: Vec::new(),
            kinds: Deck::new(if workload == Workload::Interactive {
                &INTERACTIVE_KINDS
            } else {
                &ANALYSIS_KINDS
            }),
            grid_points: Deck::new(&[16, 32, 64, 128, 256, 512]),
            whatif_variants: Deck::new(&[1, 2, 4, 8, 16, 32, 64, 128]),
            models: Deck::new(&[
                "llama3-8b",
                "llama3-8b",
                "llama3-8b",
                "llama3-8b",
                "llama3-8b",
                "llama3-8b",
                "llama3-8b",
                "gpt3-13b",
                "gpt3-13b",
                "gpt3-13b",
            ]),
            devices,
            lists: Arc::new(Request::get(Class::Devices, "/v1/devices".to_owned())),
            lookups,
            named_screens,
            popular_sims: popular_simulations()
                .into_iter()
                .map(|s| Arc::new(Request::simulate(s)))
                .collect(),
        }
    }

    /// The next `n` requests.
    pub fn take(&mut self, n: usize) -> Vec<Arc<Request>> {
        (0..n).map(|_| self.next_request()).collect()
    }

    fn next_request(&mut self) -> Arc<Request> {
        let request = match self.workload {
            Workload::Interactive => self.interactive(),
            _ => self.analysis(),
        };
        if self.workload == Workload::Analysis {
            self.made.push(Arc::clone(&request));
        }
        request
    }

    fn interactive(&mut self) -> Arc<Request> {
        let kind = self.kinds.deal(&mut self.rng);
        let device = popular(&mut self.rng, self.devices.len());
        match kind {
            0 => Arc::clone(&self.lists),
            1 => Arc::clone(&self.lookups[device]),
            2 => Arc::clone(&self.named_screens[device]),
            3 => {
                // A fresh design: its name makes it a screen-cache miss.
                let r = &mut self.rng;
                let config = object(vec![
                    (
                        "name",
                        Value::String(format!("cfg-{}-{}", self.seed, r.next_u64())),
                    ),
                    (
                        "core_count",
                        Value::Number(f64::from(64 + (r.next_u64() % 97) as u32)),
                    ),
                    (
                        "lanes_per_core",
                        Value::Number(pick(r, &[1.0, 2.0, 4.0, 8.0])),
                    ),
                    ("systolic_dim", Value::Number(pick(r, &[8.0, 16.0, 32.0]))),
                    (
                        "l2_mib",
                        Value::Number(pick(r, &[16.0, 32.0, 48.0, 64.0, 80.0])),
                    ),
                    ("hbm_tb_s", Value::Number(pick(r, &[0.8, 1.6, 2.4, 3.2]))),
                    (
                        "device_bw_gb_s",
                        Value::Number(pick(r, &[400.0, 600.0, 900.0])),
                    ),
                ]);
                let body = object(vec![("config", config)]).to_json();
                Arc::new(Request::post(Class::Screen, "/v1/screen", body))
            }
            _ => {
                let i = popular(&mut self.rng, self.popular_sims.len());
                Arc::clone(&self.popular_sims[i])
            }
        }
    }

    fn analysis(&mut self) -> Arc<Request> {
        match self.kinds.deal(&mut self.rng) {
            0 => Arc::new(self.unique_simulation()),
            1 => Arc::new(self.grid()),
            2 => Arc::new(self.whatif()),
            _ if self.made.is_empty() => Arc::new(self.unique_simulation()),
            _ => {
                let i = (self.rng.next_u64() % self.made.len() as u64) as usize;
                Arc::clone(&self.made[i])
            }
        }
    }

    fn unique_simulation(&mut self) -> Request {
        // Trace length is fixed so one simulate costs about the same as
        // another.
        let model = self.models.deal(&mut self.rng);
        let r = &mut self.rng;
        let spec = SimSpec {
            name: format!("sim-{}-{}", self.seed, r.next_u64()),
            core_count: 64 + (r.next_u64() % 69) as u32,
            lanes_per_core: pick(r, &[2, 4, 8]),
            systolic_dim: pick(r, &[16, 32]),
            l2_mib: pick(r, &[32, 40, 48, 64]),
            hbm_tb_s: pick(r, &[1.6, 2.0, 2.4, 3.2]),
            device_bw_gb_s: pick(r, &[400.0, 600.0, 900.0]),
            model,
            batch: pick(r, &[8, 16, 32]),
            input_len: pick(r, &[256, 512, 1024]),
            output_len: pick(r, &[32, 64, 128]),
            device_count: pick(r, &[2, 4, 8]),
            rate_rps: 4.0,
            duration_s: 5.0,
            seed: r.next_u64() % 1_000_000,
            max_batch: pick(r, &[16, 32]),
        };
        Request::simulate(spec)
    }

    fn grid(&mut self) -> Request {
        const POOLS: [(&str, &[f64], usize); 6] = [
            ("systolic_dims", &[8.0, 16.0, 32.0], 2),
            ("lanes_per_core", &[1.0, 2.0, 4.0, 8.0], 4),
            ("l1_kib", &[64.0, 192.0, 256.0, 512.0, 1024.0], 4),
            ("l2_mib", &[16.0, 32.0, 48.0, 64.0, 80.0], 4),
            ("hbm_tb_s", &[0.8, 1.6, 2.0, 2.4, 2.8, 3.2], 4),
            (
                "device_bw_gb_s",
                &[400.0, 500.0, 600.0, 700.0, 800.0, 900.0],
                2,
            ),
        ];
        let points = self.grid_points.deal(&mut self.rng);
        let r = &mut self.rng;
        let caps: Vec<usize> = POOLS.iter().map(|p| p.2).collect();
        let sizes = split_size(r, points, &caps);
        let mut members: Vec<(&str, Value)> = POOLS
            .iter()
            .zip(&sizes)
            .map(|(&(axis, pool, _), &k)| (axis, numbers(&subset(r, pool, k))))
            .collect();
        members.push(("tpp_target", Value::Number(pick(r, &[2400.0, 4800.0]))));
        if r.next_f64() < 0.25 {
            members.push(("scenario", Value::String(pick(r, &SCENARIOS).to_owned())));
        }
        let body = object(vec![("grid", object(members))]).to_json();
        Request {
            points,
            ..Request::post(Class::Grid, "/v1/screen", body)
        }
    }

    fn whatif(&mut self) -> Request {
        const POOLS: [(&str, &[f64], usize); 6] = [
            ("tpp_license", &[4000.0, 4400.0, 4800.0, 5200.0, 5600.0], 4),
            ("pd_license", &[5.0, 5.92, 6.5, 7.0], 4),
            ("tpp_threshold_2022", &[4000.0, 4800.0, 5600.0], 2),
            ("device_bw_threshold_2022", &[400.0, 600.0, 800.0], 2),
            ("mem_bw_license", &[0.0, 1500.0, 2500.0, 3500.0], 4),
            ("tpp_floor", &[1600.0, 2400.0], 2),
        ];
        let variants = self.whatif_variants.deal(&mut self.rng);
        let r = &mut self.rng;
        let tpp = Value::Number(pick(r, &[4800.0, 4800.0, 2400.0, 3200.0]));
        let body = if variants == 1 {
            let (axis, pool, _) = POOLS[(r.next_u64() % POOLS.len() as u64) as usize];
            let rule = object(vec![(axis, Value::Number(pick(r, pool)))]);
            object(vec![("rule", rule), ("tpp_target", tpp)])
        } else {
            let caps: Vec<usize> = POOLS.iter().map(|p| p.2).collect();
            let sizes = split_size(r, variants, &caps);
            let members: Vec<(&str, Value)> = POOLS
                .iter()
                .zip(&sizes)
                .filter(|(_, &k)| k > 1)
                .map(|(&(axis, pool, _), &k)| (axis, numbers(&subset(r, pool, k))))
                .collect();
            object(vec![("grid", object(members)), ("tpp_target", tpp)])
        };
        Request {
            points: variants,
            ..Request::post(Class::Whatif, "/v1/whatif", body.to_json())
        }
    }
}

/// Per-axis sizes whose product is `total` (a power of two), each a
/// power of two within its axis cap, spread over the axes at random.
fn split_size(rng: &mut SplitMix64, total: usize, caps: &[usize]) -> Vec<usize> {
    let mut sizes = vec![1; caps.len()];
    let mut left = total;
    while left > 1 {
        let open: Vec<usize> = (0..caps.len())
            .filter(|&i| sizes[i] * 2 <= caps[i])
            .collect();
        assert!(!open.is_empty(), "{total} exceeds the axis caps");
        let i = open[(rng.next_u64() % open.len() as u64) as usize];
        sizes[i] *= 2;
        left /= 2;
    }
    sizes
}

/// One fixed request per class the workload sends: set-up is done when
/// each has answered 200. The what-if request prices the default fleet.
#[must_use]
pub fn setup_requests(workload: Workload) -> Vec<Arc<Request>> {
    let requests = match workload {
        Workload::Paper => Vec::new(),
        Workload::Interactive => vec![
            Request::get(Class::Devices, "/v1/devices".to_owned()),
            Request::post(
                Class::Screen,
                "/v1/screen",
                "{\"device\":\"H100 SXM\"}".to_owned(),
            ),
            Request::simulate(popular_simulations()[0].clone()),
        ],
        Workload::Analysis => {
            let mut sim = popular_simulations()[0].clone();
            sim.name = "setup".to_owned();
            let grid = "{\"grid\":{\"systolic_dims\":[16],\"lanes_per_core\":[4],\
                        \"l1_kib\":[192],\"l2_mib\":[40],\"hbm_tb_s\":[2.0],\
                        \"device_bw_gb_s\":[600],\"tpp_target\":4800}}";
            vec![
                Request::simulate(sim),
                Request {
                    points: 1,
                    ..Request::post(Class::Grid, "/v1/screen", grid.to_owned())
                },
                Request {
                    points: 1,
                    ..Request::post(Class::Whatif, "/v1/whatif", "{}".to_owned())
                },
            ]
        }
    };
    requests.into_iter().map(Arc::new).collect()
}

/// Poisson arrival offsets (seconds) at `rate` per second over `seconds`.
#[must_use]
pub fn arrivals(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed ^ rate.to_bits());
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -rng.next_open_f64().ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(workload: Workload, seed: u64) -> Vec<Vec<u8>> {
        Mix::new(workload, seed)
            .take(300)
            .iter()
            .map(|r| r.wire.clone())
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in [Workload::Interactive, Workload::Analysis] {
            assert_eq!(bytes(w, 1), bytes(w, 1), "{}", w.name());
            assert_ne!(bytes(w, 1), bytes(w, 2), "{}", w.name());
        }
        assert_eq!(arrivals(3, 50.0, 2.0), arrivals(3, 50.0, 2.0));
        assert_ne!(arrivals(3, 50.0, 2.0), arrivals(4, 50.0, 2.0));
    }

    #[test]
    fn arrivals_match_the_rate() {
        let a = arrivals(9, 1000.0, 10.0);
        assert!((9_500..10_500).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn mixes_hold_the_documented_shapes() {
        let reqs = Mix::new(Workload::Analysis, 5).take(400);
        for r in &reqs {
            match r.class {
                Class::Grid => assert!((16..=512).contains(&r.points), "{}", r.body),
                Class::Whatif => assert!((1..=128).contains(&r.points), "{}", r.body),
                Class::Simulate => assert!(r.sim.is_some()),
                other => panic!("analysis sent {other:?}"),
            }
        }
        let distinct: std::collections::HashSet<_> = reqs.iter().map(|r| &r.body).collect();
        assert!(distinct.len() < reqs.len(), "analysis repeats some bodies");
        let reqs = Mix::new(Workload::Interactive, 5).take(400);
        assert!(reqs
            .iter()
            .all(|r| matches!(r.class, Class::Devices | Class::Screen | Class::Simulate)));
    }
}
