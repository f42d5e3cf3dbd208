//! The serve phase: an in-process `Engine` + `Server` on TCP loopback,
//! driven by a closed loop of `regshare_serve::Connection` clients.

use crate::plan::Plan;
use crate::rng::SplitMix;
use crate::stats;
use crate::trace::Tracer;
use regshare_bench::Scenario;
use regshare_serve::{Connection, Engine, EngineConfig, Format, Server, ServerStop};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running daemon with its client connections.
pub struct Daemon {
    /// The engine behind the server.
    pub engine: Arc<Engine>,
    /// One connection per client thread.
    pub conns: Vec<Connection>,
    stop: ServerStop,
    server: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Starts an engine on a fresh `cache_dir` with `workers` workers,
    /// binds `127.0.0.1:0`, and opens `conns` connections.
    pub fn start(cache_dir: &Path, workers: usize, conns: usize) -> Result<Daemon, String> {
        let engine = Arc::new(
            Engine::new(EngineConfig {
                cache_dir: cache_dir.display().to_string(),
                workers,
                ..EngineConfig::default()
            })
            .map_err(|e| e.to_string())?,
        );
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine)).map_err(|e| e.to_string())?;
        let addr = server.local_addr().to_string();
        let stop = server.stop_handle();
        let server = std::thread::spawn(move || server.run());
        let conns = (0..conns)
            .map(|_| Connection::connect(&addr, 20).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Daemon {
            engine,
            conns,
            stop,
            server,
        })
    }

    /// Closes the connections, stops the server and waits for it.
    pub fn shutdown(self) -> Result<(), String> {
        drop(self.conns);
        self.stop.stop();
        self.server
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| e.to_string())
    }
}

/// Warm or cold request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Repeats a prefilled scenario: every cell is a cache hit.
    Warm,
    /// Names fresh cells: every cell is computed and stored.
    Cold,
}

/// One completed request.
#[derive(Debug)]
pub struct Sample {
    /// Warm or cold.
    pub kind: Kind,
    /// Request index; a cold request's scenario is `plan.cold(k)`, a warm
    /// one's is `plan.warm[warm]`.
    pub k: u64,
    /// Index into the warm pool (warm requests).
    pub warm: usize,
    /// Round-trip time in seconds.
    pub rtt_s: f64,
    /// The reply body, or the error text.
    pub reply: Result<String, String>,
}

/// The closed loop's result.
#[derive(Debug)]
pub struct LoopResult {
    /// Every request, in completion order per connection.
    pub samples: Vec<Sample>,
    /// Wall clock from the first send to the last reply.
    pub elapsed_s: f64,
}

/// Samples each request class needs so that its p90 has ten beyond it.
pub fn min_per_class() -> usize {
    stats::samples_needed(90.0)
}

/// Longest the loop runs past its budget to reach [`min_per_class`]
/// samples.
const GRACE: Duration = Duration::from_secs(20);

/// Runs the closed loop: each connection sends its next request only
/// after the previous reply. Request `k` is cold or warm by a seeded coin.
/// The loop runs for `budget`, then on until each class has
/// [`min_per_class`] samples, for at most [`GRACE`] more.
pub fn closed_loop(
    daemon: &mut Daemon,
    plan: &Plan,
    seed: u64,
    budget: Duration,
    tracer: Option<&Tracer>,
) -> LoopResult {
    let warm_texts: Vec<String> = plan.warm.iter().map(Scenario::render).collect();
    let next = AtomicU64::new(0);
    let done = [AtomicUsize::new(0), AtomicUsize::new(0)];
    let samples = Mutex::new(Vec::new());
    let need = min_per_class();
    let start = Instant::now();
    let (soft, hard) = (start + budget, start + budget + GRACE);
    let conns = std::mem::take(&mut daemon.conns);
    let conns: Vec<Connection> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                let (next, done, samples, warm_texts) = (&next, &done, &samples, &warm_texts);
                scope.spawn(move || {
                    let mut local = tracer.map(Tracer::local);
                    loop {
                        let now = Instant::now();
                        let enough = done.iter().all(|d| d.load(Ordering::Relaxed) >= need);
                        if now >= hard || (now >= soft && enough) {
                            break;
                        }
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let mut coin = SplitMix::new(seed ^ k.rotate_left(32));
                        let kind = if coin.next() & 1 == 0 {
                            Kind::Warm
                        } else {
                            Kind::Cold
                        };
                        let warm = coin.below(warm_texts.len());
                        let text = match kind {
                            Kind::Warm => warm_texts[warm].clone(),
                            Kind::Cold => plan.cold(k).render(),
                        };
                        let span = local.as_mut().map(|l| {
                            let name = match kind {
                                Kind::Warm => "serve.request_warm",
                                Kind::Cold => "serve.request_cold",
                            };
                            l.open(name, k + 1, 0)
                        });
                        let t0 = Instant::now();
                        let outcome = conn.run(&text, Format::Table);
                        let rtt_s = t0.elapsed().as_secs_f64();
                        if let (Some(l), Some(span)) = (local.as_mut(), span) {
                            l.close(span);
                        }
                        let transport_failed = outcome.is_err();
                        let reply = match outcome {
                            Ok(Ok(reply)) => Ok(reply.body),
                            Ok(Err(line)) => Err(line),
                            Err(e) => Err(format!("transport: {e}")),
                        };
                        done[kind as usize].fetch_add(1, Ordering::Relaxed);
                        samples.lock().expect("sample log poisoned").push(Sample {
                            kind,
                            k,
                            warm,
                            rtt_s,
                            reply,
                        });
                        if transport_failed {
                            break;
                        }
                    }
                    conn
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    daemon.conns = conns;
    LoopResult {
        samples: samples.into_inner().expect("sample log poisoned"),
        elapsed_s: start.elapsed().as_secs_f64(),
    }
}

/// Round-trip times in milliseconds of one class.
pub fn rtts_ms(samples: &[Sample], kind: Kind) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.rtt_s * 1e3)
        .collect()
}
