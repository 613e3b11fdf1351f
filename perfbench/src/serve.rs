//! `serve`: an in-process `Server` with two workers and two closed-loop
//! clients. Each session runs `ping → load_dataset → learn → accuracies →
//! select_best` on contest-benchmark samples; every second session of a
//! client repeats the (dataset, seed) of the session before it, so its
//! `select_best` reads the compile cache.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use lsml_benchgen::{BenchData, Benchmark, SampleConfig};
use lsml_core::problem::NODE_LIMIT;
use lsml_serve::client::{Client, ClientError, SelectBestReply};
use lsml_serve::protocol::Status;
use lsml_serve::{Server, ServerConfig};

use crate::metrics::{fnv1a, median, tail, Metrics};
use crate::trace::{self, Span};
use crate::{contest, mix, reference, Pass, SplitMix};

const CLIENTS: usize = 2;
const LEARN_ROUNDS: u32 = 32;
const SAMPLES: usize = 400;
const OPS: [&str; 5] = ["ping", "load_dataset", "learn", "accuracies", "select_best"];

pub struct Serve {
    seed: u64,
    benches: Vec<Benchmark>,
    clients: Vec<Client>,
    server: Option<Server>,
}

impl Drop for Serve {
    fn drop(&mut self) {
        // Hang up first so the server's reader threads see EOF and exit.
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown_and_join();
        }
    }
}

pub fn setup(seed: u64) -> std::io::Result<Serve> {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerConfig::for_tests()
    })?;
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(server.local_addr()))
        .collect::<std::io::Result<Vec<_>>>()?;
    Ok(Serve {
        seed,
        benches: contest::benchmarks(),
        clients,
        server: Some(server),
    })
}

/// One planned session: its dataset, the seed sent with it, and whether it
/// repeats an earlier session (a warm compile cache).
struct Plan {
    id: u64,
    data: Arc<BenchData>,
    seed: u64,
    warm: bool,
}

/// Sends one request, retrying while the server sheds it: `Overloaded`
/// tells the client to retry later. Sheds stay visible in
/// `serve.stats.shed`.
fn retry<T>(mut op: impl FnMut() -> Result<T, ClientError>) -> Result<T, ClientError> {
    let mut attempts = 0;
    loop {
        match op() {
            Err(ClientError::Server(Status::Overloaded, _)) if attempts < 1000 => {
                attempts += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            other => return other,
        }
    }
}

fn session(client: &mut Client, plan: &Plan) -> Result<SelectBestReply, ClientError> {
    let phase = if plan.warm { "warm" } else { "cold" };
    let id = plan.id;
    let data = &plan.data;
    trace::span("serve.session", phase, id, || {
        trace::span("serve.ping", phase, id, || retry(|| client.ping()))?;
        trace::span("serve.load_dataset", phase, id, || {
            retry(|| client.load_dataset(&data.train, &data.valid, plan.seed, NODE_LIMIT as u32))
        })?;
        trace::span("serve.learn", phase, id, || {
            retry(|| client.learn(LEARN_ROUNDS))
        })?;
        trace::span("serve.accuracies", phase, id, || {
            retry(|| client.accuracies())
        })?;
        trace::span("serve.select_best", phase, id, || {
            retry(|| client.select_best(0))
        })
    })
}

/// One client's sessions, in order. A transport error reconnects for the
/// next session.
fn run_client(
    client: &mut Client,
    plans: &[Plan],
    addr: std::net::SocketAddr,
) -> Vec<Result<SelectBestReply, ClientError>> {
    plans
        .iter()
        .map(|plan| {
            let outcome = session(client, plan);
            if let Err(e) = &outcome {
                eprintln!("perfbench: serve session {}: {e}", plan.id);
                if matches!(e, ClientError::Io(_)) {
                    if let Ok(fresh) = Client::connect(addr) {
                        *client = fresh;
                    }
                }
            }
            outcome
        })
        .collect()
}

impl Serve {
    /// Each pass samples every benchmark once, with a seed drawn from the
    /// run seed. A client alternates a fresh sample with a repeat of the
    /// sample it just finished, so the repeat reads the compile cache the
    /// fresh session filled. The clients split the benchmarks by parity,
    /// swapping halves every pass.
    fn plan(&self, index: u64) -> Vec<Vec<Plan>> {
        let mut rng = SplitMix(mix(self.seed, index));
        (0..CLIENTS)
            .map(|c| {
                let mut plans: Vec<Plan> = Vec::new();
                for (k, bench) in self.benches.iter().enumerate() {
                    if !(k + c + index as usize).is_multiple_of(CLIENTS) {
                        continue;
                    }
                    let seed = rng.next();
                    let data = Arc::new(bench.sample(&SampleConfig {
                        samples_per_split: SAMPLES,
                        seed,
                    }));
                    for warm in [false, true] {
                        plans.push(Plan {
                            id: index * 100 + (c * self.benches.len() + plans.len()) as u64,
                            data: Arc::clone(&data),
                            seed,
                            warm,
                        });
                    }
                }
                plans
            })
            .collect()
    }

    pub fn pass(&mut self, index: u64) -> Pass {
        let plans = self.plan(index);
        let server = self.server.as_ref().expect("server runs until drop");
        let addr = server.local_addr();
        let c = server.counters();
        let counters = |c: &lsml_serve::server::Counters| {
            [
                c.accepted.load(Ordering::Relaxed),
                c.completed.load(Ordering::Relaxed),
                c.shed.load(Ordering::Relaxed),
                c.deadline_exceeded.load(Ordering::Relaxed),
                c.panics_caught.load(Ordering::Relaxed),
                c.malformed.load(Ordering::Relaxed),
            ]
        };
        let before = counters(c);
        let start = Instant::now();
        let outcomes: Vec<Vec<Result<SelectBestReply, ClientError>>> =
            trace::span("perfbench.serve", "", 0, || {
                let root = trace::current();
                std::thread::scope(|s| {
                    let handles: Vec<_> = self
                        .clients
                        .iter_mut()
                        .zip(&plans)
                        .map(|(client, plans)| {
                            s.spawn(move || trace::adopt(root, || run_client(client, plans, addr)))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("client thread panicked"))
                        .collect()
                })
            });
        let wall_s = start.elapsed().as_secs_f64();
        // A worker counts a request completed just after sending its reply.
        let settle = Instant::now();
        while c.completed.load(Ordering::Relaxed) < c.accepted.load(Ordering::Relaxed)
            && settle.elapsed() < std::time::Duration::from_secs(1)
        {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let after = counters(c);

        let mut pass = Pass {
            wall_s,
            ..Pass::default()
        };
        let mut digest = Vec::new();
        let (mut status_errors, mut transport_errors) = (0, 0);
        for (plans, outcomes) in plans.iter().zip(&outcomes) {
            for (j, (plan, out)) in plans.iter().zip(outcomes).enumerate() {
                pass.attempted += 1;
                let reply = match out {
                    Ok(reply) => reply,
                    Err(e) => {
                        pass.failed += 1;
                        match e {
                            ClientError::Io(_) => transport_errors += 1,
                            _ => status_errors += 1,
                        }
                        continue;
                    }
                };
                digest.extend_from_slice(&reply.and_gates.to_le_bytes());
                digest.extend_from_slice(&reply.accuracy.to_bits().to_le_bytes());
                let valid = reference::accuracy(&reply.aig, &plan.data.valid);
                if reply.partial
                    || reply.aig.num_ands() != reply.and_gates as usize
                    || reply.aig.num_ands() > NODE_LIMIT
                    || valid != reply.accuracy
                {
                    pass.mismatches.push(format!(
                        "session {}: {} ANDs (reported {}), reference valid accuracy {valid}, reported {}",
                        plan.id,
                        reply.aig.num_ands(),
                        reply.and_gates,
                        reply.accuracy
                    ));
                }
                // A repeat must return exactly what its original returned.
                if plan.warm {
                    if let Ok(o) = &outcomes[j - 1] {
                        if (o.and_gates, o.accuracy.to_bits())
                            != (reply.and_gates, reply.accuracy.to_bits())
                        {
                            pass.mismatches.push(format!(
                                "session {}: repeat differs from its original",
                                plan.id
                            ));
                        }
                    }
                }
                pass.accuracy
                    .push(100.0 * reference::accuracy(&reply.aig, &plan.data.test));
                pass.gates.push(f64::from(reply.and_gates));
            }
        }
        pass.digest = fnv1a(&digest);
        let names = [
            "accepted",
            "completed",
            "shed",
            "deadline_exceeded",
            "panics_caught",
            "malformed",
        ];
        for ((name, b), a) in names.iter().zip(before).zip(after) {
            pass.layer
                .put(format!("serve.stats.{name}"), (a - b) as f64, "count");
        }
        pass.layer
            .put("serve.errors.status", status_errors as f64, "count");
        pass.layer
            .put("serve.errors.transport", transport_errors as f64, "count");
        pass
    }
}

pub fn layer_metrics(spans: &[Span], m: &mut Metrics) {
    let ms = |name: &str, phase: Option<&str>| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && phase.is_none_or(|p| s.detail == p))
            .map(|s| 1e3 * s.dur_s())
            .collect()
    };
    for op in OPS {
        let v = ms(&format!("serve.{op}"), None);
        let (_, t) = tail(&v);
        m.put(format!("serve.op_p50_ms.{op}"), median(&v), "ms");
        m.put(format!("serve.op_tail_ms.{op}"), t, "ms");
    }
    for phase in ["cold", "warm"] {
        m.put(
            format!("serve.select_best_p50_ms.{phase}"),
            median(&ms("serve.select_best", Some(phase))),
            "ms",
        );
    }
    let sessions = ms("serve.session", None);
    let (pct, t) = tail(&sessions);
    m.put("serve.session_p50_ms", median(&sessions), "ms");
    m.put("serve.session_tail_ms", t, "ms");
    m.put("serve.tail_pct", pct, "%");
}
