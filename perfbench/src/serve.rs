//! `serve-mixed`: a `Server` with 2 decode workers behind loopback
//! `serve_tcp`, driven by 2 closed-loop connections (each waits for its
//! reply before sending the next request) speaking the wire protocol.
//! The store holds 16 × 64 KiB objects; 15/16 of requests are FETCH
//! (half of them to 2 hot objects), 1/16 are PUT of 4 KiB. RFETCH is
//! left out: its greedy-clusterer recovery path would dominate any mix.

use crate::store::{object, shadow_put, Object, StoreStats};
use crate::trace::{self, span};
use crate::util::{
    self, fail, maybe_inject, median, ms, quantile, ratio, secs, silent, Metrics, Rng, Tally,
};
use crate::Ctx;
use dna_object::{FetchOptions, ObjectStore, StoreConfig, POOL_FILE};
use dna_server::protocol::{read_frame, read_response, write_request, write_response};
use dna_server::{serve_tcp, Request, Response, ServeConfig, Server, TcpHandle};
use dna_storage::{DecodeWorkspace, Pipeline};
use std::io::{BufReader, BufWriter, Cursor, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Instant;

const OBJECTS: usize = 16;
const OBJECT_BYTES: usize = 64 * 1024;
const HOT: usize = 2;
const PUT_ONE_IN: usize = 16;
const PUT_BYTES: usize = 4 * 1024;
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const SETUPS: usize = 5;
/// Logged requests replayed against the store directly and through the
/// in-memory codec in the traced run.
const REPLAYS: usize = 160;

struct Running {
    server: Server,
    tcp: TcpHandle,
    dir: PathBuf,
    objects: Vec<Object>,
    ids: Vec<u64>,
    density: f64,
}

fn preload(dir: &PathBuf, objects: &[Object]) -> (ObjectStore, Vec<u64>) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("clear store dir");
    }
    let config = StoreConfig::laptop().expect("laptop store");
    let mut store =
        ObjectStore::create(dir, config).unwrap_or_else(|e| fail(&format!("create store: {e}")));
    let ids = objects
        .iter()
        .map(|o| {
            store
                .put_bytes(&o.name, &o.bytes)
                .unwrap_or_else(|e| fail(&format!("preload {}: {e}", o.name)))
        })
        .collect();
    (store, ids)
}

fn setup(ctx: &Ctx) -> Running {
    let mut rng = Rng::new(ctx.seed);
    let objects: Vec<Object> = (0..OBJECTS)
        .map(|i| object(&mut rng, format!("hot-{i}"), OBJECT_BYTES, i % 2 == 0))
        .collect();
    let dir = ctx.work_dir.join("serve-mixed");
    let (store, ids) = preload(&dir, &objects);
    let density = {
        let h = store.header();
        let strand_bases = h.params().expect("params").strand_bases();
        let bases: u64 = store
            .manifest()
            .capsules()
            .iter()
            .map(|c| u64::from(c.units) * (h.cols() * strand_bases) as u64)
            .sum();
        bases as f64 / (OBJECTS * OBJECT_BYTES) as f64
    };
    let server = Server::start(
        store,
        &ServeConfig {
            workers: WORKERS,
            queue_depth: 64,
        },
    );
    let tcp = serve_tcp(&server, "127.0.0.1:0").unwrap_or_else(|e| fail(&format!("bind: {e}")));
    Running {
        server,
        tcp,
        dir,
        objects,
        ids,
        density,
    }
}

fn stop(running: Running) {
    running.tcp.stop();
    drop(running.server.shutdown());
    std::fs::remove_dir_all(&running.dir).expect("remove store dir");
}

/// One logged request: what was asked and how long the reply took.
#[derive(Clone)]
struct Logged {
    request: Request,
    /// Index into the preloaded objects, for FETCH.
    object: Option<usize>,
    latency_ms: f64,
    /// Seconds from the start of the load to the reply.
    done_s: f64,
    ok: bool,
}

/// Seeded request `n` of client `client`.
fn next_request(
    rng: &mut Rng,
    running: &Running,
    salt: u64,
    client: usize,
    n: usize,
) -> (Request, Option<usize>) {
    if n % PUT_ONE_IN == PUT_ONE_IN - 1 {
        let name = format!("put-{salt:x}-{client}-{n}");
        return (
            Request::Put {
                name,
                data: rng.bytes(PUT_BYTES),
            },
            None,
        );
    }
    let i = if rng.below(2) == 0 {
        rng.below(HOT)
    } else {
        rng.below(OBJECTS)
    };
    (
        Request::Fetch {
            target: running.ids[i].to_string(),
            recover: false,
        },
        Some(i),
    )
}

/// Runs the closed loop for `seconds` and returns every request with its
/// latency plus the loop's wall time.
fn load(running: &Running, ctx: &Ctx, seconds: f64, salt: u64, traced: bool) -> (Vec<Logged>, f64) {
    let addr = running.tcp.addr();
    let start = Instant::now();
    let logs: Vec<(Vec<Logged>, Vec<trace::Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    trace::enable(traced);
                    let mut rng = Rng::new(ctx.seed ^ salt ^ ((c as u64 + 1) << 40));
                    let stream =
                        TcpStream::connect(addr).unwrap_or_else(|e| fail(&format!("connect: {e}")));
                    stream.set_nodelay(true).expect("nodelay");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                    let mut writer = BufWriter::new(stream);
                    let mut log = Vec::new();
                    let mut n = 0;
                    while secs(start) < seconds {
                        let (request, obj) = next_request(&mut rng, running, salt, c, n);
                        trace::set_request(((c as u64) << 32) | n as u64);
                        let t = Instant::now();
                        let response = span("root.request", || {
                            write_request(&mut writer, &request)?;
                            writer.flush()?;
                            read_response(&mut reader)
                        })
                        .unwrap_or_else(|e| fail(&format!("wire: {e}")));
                        let latency_ms = ms(t);
                        let ok = check(running, obj, response, ctx.inject);
                        log.push(Logged {
                            request,
                            object: obj,
                            latency_ms,
                            done_s: secs(start),
                            ok,
                        });
                        n += 1;
                    }
                    dna_server::protocol::write_quit(&mut writer).expect("quit");
                    writer.flush().expect("flush");
                    trace::enable(false);
                    (log, trace::take())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = secs(start);
    let mut all = Vec::new();
    let mut spans = Vec::new();
    for (log, s) in logs {
        all.extend(log);
        spans.extend(s);
    }
    if traced {
        crate::write_spans(ctx, &spans);
    }
    (all, wall)
}

/// The correctness gate for one reply to a FETCH of preloaded object
/// `object` (a PUT when `None`). An `ERR` is a loud failure (returns
/// false); an `OK` with wrong bytes aborts the run.
fn check(running: &Running, object: Option<usize>, response: Response, inject: bool) -> bool {
    match (response, object) {
        (Response::Ok(mut body), Some(i)) => {
            maybe_inject(&mut body, inject);
            if body != running.objects[i].bytes {
                silent(&format!("FETCH of object {i} returned wrong bytes"));
            }
        }
        (Response::Ok(body), None) => {
            if !body.starts_with(b"id=") {
                silent("PUT answered OK without an object id");
            }
        }
        (Response::Err(code, msg), _) => {
            eprintln!("perfbench: ERR {code:?} {msg}");
            return false;
        }
    }
    true
}

pub fn run(ctx: &Ctx) -> (Metrics, Tally) {
    let mut m = Metrics::default();
    let (running, setup_s) = util::repeated_setup(SETUPS, || setup(ctx), stop);
    let tally = if ctx.trace {
        traced(&running, ctx, &mut m)
    } else {
        untraced(&running, ctx, &mut m)
    };
    m.set("setup_s", setup_s, "s");
    m.set("bases_per_byte", running.density, "bases/B");
    stop(running);
    (m, tally)
}

fn tally_of(log: &[Logged]) -> Tally {
    let mut tally = Tally::default();
    for l in log {
        tally.record(l.ok);
    }
    tally
}

/// FETCH payload bytes per second in each whole one-second window of the
/// load.
fn fetch_window_rates(log: &[Logged], wall: f64) -> Vec<f64> {
    let mut windows = vec![0.0; wall.floor().max(1.0) as usize];
    for l in log.iter().filter(|l| l.ok && l.object.is_some()) {
        if let Some(slot) = windows.get_mut(l.done_s as usize) {
            *slot += OBJECT_BYTES as f64;
        }
    }
    windows
}

fn untraced(running: &Running, ctx: &Ctx, m: &mut Metrics) -> Tally {
    let (log, wall) = load(running, ctx, ctx.seconds, 0, false);
    let fetch_lat: Vec<f64> = log
        .iter()
        .filter(|l| l.object.is_some())
        .map(|l| l.latency_ms)
        .collect();
    let all_lat: Vec<f64> = log.iter().map(|l| l.latency_ms).collect();
    // Medians over one-second windows, so a burst of contention from
    // outside the benchmark moves the rates less than a mean would.
    let fetch_rates = fetch_window_rates(&log, wall);
    // Too few PUTs per window for a rate there: the PUT rate is the
    // payload over the median PUT latency, as one connection sees it.
    let put_lat: Vec<f64> = log
        .iter()
        .filter(|l| l.object.is_none())
        .map(|l| l.latency_ms)
        .collect();
    eprintln!(
        "perfbench: {} requests ({} FETCH) in {wall:.1} s: {:.1} req/s, p50 {:.2} ms, p99 {:.2} ms",
        log.len(),
        fetch_lat.len(),
        log.len() as f64 / wall,
        quantile(&all_lat, 0.5),
        quantile(&all_lat, 0.99)
    );
    m.set("read_mb_s", median(&fetch_rates) / 1e6, "MB/s");
    m.set(
        "write_mb_s",
        PUT_BYTES as f64 / (median(&put_lat) / 1e3) / 1e6,
        "MB/s",
    );
    m.set("read_p50_ms", quantile(&fetch_lat, 0.5), "ms");
    m.set("read_p90_ms", quantile(&fetch_lat, 0.9), "ms");
    tally_of(&log)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn traced(running: &Running, ctx: &Ctx, m: &mut Metrics) -> Tally {
    let third = ctx.seconds / 3.0;
    let (plain, _) = load(running, ctx, third, 0, false);
    let (log, _) = load(running, ctx, third, 0x7ACE, true);
    let counters = running.server.stats();
    let coalesced = ratio(counters.coalesced_fetches as f64, counters.fetches as f64);

    // Service time: the same requests against an identical store, no
    // queue and no wire. Put replays also re-drive the put through public
    // parts, which splits it into layers.
    let replay_dir = ctx.work_dir.join("serve-replay");
    let shadow_dir = ctx.work_dir.join("serve-replay-shadow");
    let (mut store, ids) = preload(&replay_dir, &running.objects);
    if shadow_dir.exists() {
        std::fs::remove_dir_all(&shadow_dir).expect("clear shadow dir");
    }
    std::fs::create_dir_all(&shadow_dir).expect("shadow dir");
    let mut shadow = std::fs::File::create(shadow_dir.join(POOL_FILE)).expect("shadow pool");
    let base = Pipeline::builder()
        .params(store.header().params().expect("params"))
        .layout(store.header().layout.to_layout())
        .build()
        .expect("pipeline");
    let mut stats = StoreStats::default();
    let mut ws = DecodeWorkspace::new();
    let replays: Vec<Logged> = log.iter().take(REPLAYS).cloned().collect();
    let mut service_ms = 0.0;
    let mut responses = Vec::new();
    for l in &replays {
        let t = Instant::now();
        let response = match (&l.request, l.object) {
            (Request::Fetch { .. }, Some(i)) => {
                let mut out = Vec::new();
                store
                    .fetch_with_workspace(ids[i], &mut out, &FetchOptions::default(), &mut ws)
                    .unwrap_or_else(|e| fail(&format!("replay fetch: {e}")));
                Response::Ok(out)
            }
            (Request::Put { name, data }, _) => {
                let pool = replay_dir.join(POOL_FILE);
                let before = std::fs::metadata(&pool).expect("pool").len();
                let t = Instant::now();
                let id = store
                    .put_bytes(name, data)
                    .unwrap_or_else(|e| fail(&format!("replay put: {e}")));
                service_ms += ms(t);
                trace::enable(true);
                let record = span("root.put", || {
                    shadow_put(
                        &store,
                        &base,
                        &[0; 32],
                        id,
                        data,
                        &mut shadow,
                        &shadow_dir,
                        &mut stats,
                    )
                })
                .unwrap_or_else(|e| fail(&format!("shadow put: {e}")));
                trace::enable(false);
                if crate::store::appended_since(&pool, before) != record {
                    fail("fidelity: shadow put wrote different pool bytes");
                }
                responses.push(Response::ok(format!("id={id}")));
                continue;
            }
            _ => fail("unexpected replay request"),
        };
        service_ms += ms(t);
        responses.push(response);
    }
    drop(store);
    std::fs::remove_dir_all(&replay_dir).expect("remove replay dir");
    std::fs::remove_dir_all(&shadow_dir).expect("remove shadow dir");

    // Protocol time: frame encode and decode in memory, both directions.
    let start = Instant::now();
    for (l, response) in replays.iter().zip(&responses) {
        let mut wire = Vec::new();
        write_request(&mut wire, &l.request).expect("encode request");
        let frame = read_frame(&mut Cursor::new(&wire)).expect("decode request");
        std::hint::black_box(frame);
        let mut wire = Vec::new();
        write_response(&mut wire, response).expect("encode response");
        let back = read_response(&mut Cursor::new(&wire)).expect("decode response");
        if back != *response {
            fail("protocol round trip changed a response");
        }
    }
    let protocol_ms = ms(start);

    let spans = trace::take();
    crate::write_spans(ctx, &spans);
    let unattributed = trace::check_attribution(&spans, crate::ATTRIBUTION_BOUND);
    let selfs = trace::self_ms(&spans);
    let get = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let n = replays.len().max(1) as f64;
    let latency = mean(replays.iter().map(|l| l.latency_ms));
    let service = service_ms / n;
    let protocol = protocol_ms / n;
    let plain_mean = mean(plain.iter().map(|l| l.latency_ms));
    let traced_mean = mean(log.iter().map(|l| l.latency_ms));
    m.set(
        "trace.overhead_pct",
        100.0 * (traced_mean - plain_mean) / plain_mean,
        "%",
    );
    m.set("trace.unattributed_pct", unattributed, "%");
    m.set("server.service_ms", service, "ms");
    m.set("server.protocol_ms", protocol, "ms");
    m.set(
        "server.queue_wait_ms",
        (latency - service - protocol).max(0.0),
        "ms",
    );
    m.set("server.coalesced_ratio", coalesced, "ratio");
    // Put replays: per replayed PUT, as the serve path pays them.
    let puts = replays.iter().filter(|l| l.object.is_none()).count().max(1) as f64;
    m.set(
        "object.pool_write_ms",
        get("object.pool_write") / puts,
        "ms",
    );
    m.set("object.commit_ms", get("object.commit") / puts, "ms");
    let mut all = plain;
    all.extend(log);
    tally_of(&all)
}
