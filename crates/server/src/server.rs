//! The service core: one shared [`ObjectStore`] behind a read/write
//! lock, a [`Bounded`] work queue, and N decode workers that each own a
//! warm [`DecodeWorkspace`] for their whole lifetime.
//!
//! Concurrency model:
//!
//! - **Fetches** hold the store's read lock only to resolve the target
//!   and plan the fetch ([`ObjectStore::plan_fetch`]), then decode with
//!   no lock held ([`FetchPlan::run`]). The pool is append-only and a
//!   delete only appends a tombstone, so a plan stays valid while puts
//!   and deletes land: a fetch planned before a delete returns the
//!   pre-delete bytes. Each worker decodes serially through its own
//!   pooled workspace, so resident scratch is one workspace per
//!   *worker*, never per OS thread.
//! - **Puts/deletes** take the write lock (the pool file and manifest
//!   are append-only, single-writer). They wait for plans and other
//!   writers, never for a decode.
//! - **Coalescing**: concurrent fetches of the same `(object, path)`
//!   share one decode — the first becomes the leader, the rest park
//!   their reply channels on its in-flight slot and get a clone of its
//!   response.
//! - **Failure containment**: a request that panics is answered with
//!   `ERR internal` and its worker lives on; a leader that unwinds
//!   answers its parked followers the same way and clears its slot.
//!   Every lock is poison-tolerant: a critical section that unwinds
//!   leaves its state consistent or, for the store, as a failed I/O
//!   would.
//!
//! [`FetchPlan::run`]: dna_object::FetchPlan::run

use crate::protocol::{ErrorCode, Request, Response};
use crate::queue::Bounded;
use crate::unpoison;
use dna_object::{FetchOptions, ObjectStore};
use dna_storage::{DecodeWorkspace, StorageError};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;

/// Serve-mode knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Decode worker threads (each owns one warm workspace).
    pub workers: usize,
    /// Work-queue depth: producers (connections) block past this —
    /// backpressure instead of unbounded buffering.
    pub queue_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_depth: 64,
        }
    }
}

/// Monotonic server counters (lock-free, racy-read snapshots).
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    fetches: AtomicU64,
    puts: AtomicU64,
    deletes: AtomicU64,
    errors: AtomicU64,
    coalesced_fetches: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            fetches: self.fetches.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            coalesced_fetches: self.coalesced_fetches.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the server counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests executed (all kinds).
    pub requests: u64,
    /// Fetches executed, coalesced followers included.
    pub fetches: u64,
    /// Puts executed.
    pub puts: u64,
    /// Deletes executed.
    pub deletes: u64,
    /// Error responses produced.
    pub errors: u64,
    /// Fetches answered by waiting on another request's decode.
    pub coalesced_fetches: u64,
}

impl StatsSnapshot {
    /// The deterministic text form the `STATS` verb returns.
    pub fn to_text(&self) -> String {
        format!(
            "requests={} fetches={} puts={} deletes={} errors={} coalesced_fetches={}\n",
            self.requests,
            self.fetches,
            self.puts,
            self.deletes,
            self.errors,
            self.coalesced_fetches
        )
    }
}

/// One fetch in flight. Followers do NOT block a worker: they drop
/// their reply channel into `waiters` and go back to draining the
/// queue, so every queued duplicate — not just the ones workers happen
/// to be holding — attaches to the one decode.
#[derive(Default)]
struct Flight {
    state: Mutex<FlightState>,
}

#[derive(Default)]
struct FlightState {
    /// Set exactly once, by the leader, after the decode.
    done: Option<Response>,
    /// Reply channels of coalesced followers, drained at publish.
    waiters: Vec<SyncSender<Response>>,
}

impl Flight {
    /// Registers a follower; answers immediately when the leader
    /// already published (the follower raced the publish).
    fn attach(&self, reply: SyncSender<Response>) {
        let mut state = unpoison(self.state.lock());
        match &state.done {
            Some(response) => {
                let _ = reply.send(response.clone());
            }
            None => state.waiters.push(reply),
        }
    }

    /// Publishes the leader's response to every attached follower and
    /// to late attachers.
    fn publish(&self, response: &Response) -> Vec<SyncSender<Response>> {
        let mut state = unpoison(self.state.lock());
        state.done = Some(response.clone());
        std::mem::take(&mut state.waiters)
    }
}

struct Job {
    request: Request,
    reply: SyncSender<Response>,
}

/// A coalescing key: the object id and whether the fetch recovers.
type FlightKey = (u64, bool);

/// The leader's hold on a flight. [`Leader::land`] unregisters the key
/// and answers every parked follower; a leader dropped unlanded — its
/// decode unwound — lands a typed `ERR internal` instead, so no follower
/// waits on a flight that never publishes.
struct Leader<'a> {
    shared: &'a Shared,
    key: FlightKey,
    flight: Arc<Flight>,
    landed: bool,
}

impl Leader<'_> {
    fn land(&mut self, response: &Response) {
        self.landed = true;
        // Unregister before publishing: late arrivals start a fresh
        // decode, everyone already attached gets this one.
        unpoison(self.shared.inflight.lock()).remove(&self.key);
        for waiter in self.flight.publish(response) {
            finish(self.shared, &waiter, response.clone());
        }
    }
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        if !self.landed {
            self.land(&Response::err(
                ErrorCode::Internal,
                "the shared decode panicked",
            ));
        }
    }
}

struct Shared {
    store: RwLock<ObjectStore>,
    queue: Bounded<Job>,
    inflight: Mutex<HashMap<FlightKey, Arc<Flight>>>,
    counters: Counters,
}

impl Shared {
    fn new(store: ObjectStore, queue_depth: usize) -> Shared {
        Shared {
            store: RwLock::new(store),
            queue: Bounded::new(queue_depth),
            inflight: Mutex::new(HashMap::new()),
            counters: Counters::default(),
        }
    }
}

/// The running server: shared state plus its worker pool.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts `config.workers` decode workers over `store`.
    pub fn start(store: ObjectStore, config: &ServeConfig) -> Server {
        let shared = Arc::new(Shared::new(store, config.queue_depth));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dna-serve-{i}"))
                    .spawn(move || worker_loop(&shared, handle))
                    .expect("spawn worker")
            })
            .collect();
        Server { shared, workers }
    }

    /// An in-process client: requests enter the same bounded queue and
    /// worker pool as TCP connections, minus the socket.
    pub fn client(&self) -> LocalClient {
        LocalClient {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Current counter values.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.counters.snapshot()
    }

    /// Closes the queue, drains it, joins every worker, and hands the
    /// store back (None if clients still hold the server alive).
    pub fn shutdown(self) -> Option<ObjectStore> {
        self.shared.queue.close();
        for worker in self.workers {
            let _ = worker.join();
        }
        Arc::try_unwrap(self.shared)
            .ok()
            .map(|shared| unpoison(shared.store.into_inner()))
    }
}

/// An in-process handle into the server's queue (cloneable, `Send`).
#[derive(Clone)]
pub struct LocalClient {
    shared: Arc<Shared>,
}

impl LocalClient {
    /// Executes one request, blocking until its response (or until the
    /// queue rejects it at shutdown).
    pub fn call(&self, request: Request) -> Response {
        let (tx, rx) = sync_channel(1);
        let job = Job { request, reply: tx };
        if self.shared.queue.push(job).is_err() {
            return Response::err(ErrorCode::Busy, "server is shutting down");
        }
        rx.recv()
            .unwrap_or_else(|_| Response::err(ErrorCode::Internal, "worker dropped the reply"))
    }

    /// `FETCH`/`RFETCH` convenience.
    pub fn fetch(&self, target: &str, recover: bool) -> Response {
        self.call(Request::Fetch {
            target: target.to_string(),
            recover,
        })
    }

    /// `PUT` convenience.
    pub fn put(&self, name: &str, data: impl Into<Vec<u8>>) -> Response {
        self.call(Request::Put {
            name: name.to_string(),
            data: data.into(),
        })
    }

    /// `LS` convenience.
    pub fn ls(&self) -> Response {
        self.call(Request::Ls)
    }

    /// `DEL` convenience.
    pub fn del(&self, target: &str) -> Response {
        self.call(Request::Del {
            target: target.to_string(),
        })
    }
}

/// Runs `handle` on every queued job until the queue closes.
fn worker_loop(shared: &Shared, handle: fn(&Shared, Job, &mut DecodeWorkspace)) {
    // The worker's pooled scratch: exactly one workspace (and its
    // embedded RsScratch) per worker for the server's whole life —
    // not one per OS thread that ever called plain decode().
    let mut workspace = DecodeWorkspace::new();
    while let Some(job) = shared.queue.pop() {
        let reply = job.reply.clone();
        if catch_unwind(AssertUnwindSafe(|| handle(shared, job, &mut workspace))).is_err() {
            // A panicking request costs its worker the scratch it may
            // have left half-written, never the worker itself.
            workspace = DecodeWorkspace::new();
            finish(
                shared,
                &reply,
                Response::err(ErrorCode::Internal, "the request panicked"),
            );
        }
    }
}

/// Counts and sends one response. A disconnected client is not a
/// server error; the reply is dropped.
fn finish(shared: &Shared, reply: &SyncSender<Response>, response: Response) {
    if !response.is_ok() {
        shared.counters.errors.fetch_add(1, Ordering::Relaxed);
    }
    let _ = reply.send(response);
}

fn storage_error(e: &StorageError) -> Response {
    let code = match e {
        StorageError::ObjectNotFound { .. } => ErrorCode::NotFound,
        StorageError::InvalidParams(_) => ErrorCode::Bad,
        _ => ErrorCode::Internal,
    };
    Response::err(code, e.to_string())
}

/// Resolves a wire target — a decimal id, else a live object name — to
/// an object id.
fn resolve(store: &ObjectStore, target: &str) -> Option<u64> {
    if let Ok(id) = target.parse::<u64>() {
        if store.manifest().object(id).is_some_and(|o| !o.tombstone) {
            return Some(id);
        }
    }
    store.object_id(target)
}

fn handle(shared: &Shared, job: Job, workspace: &mut DecodeWorkspace) {
    shared.counters.requests.fetch_add(1, Ordering::Relaxed);
    let Job { request, reply } = job;
    match request {
        Request::Ping => finish(shared, &reply, Response::ok(&b"pong"[..])),
        Request::Stats => {
            let text = shared.counters.snapshot().to_text();
            finish(shared, &reply, Response::ok(text));
        }
        Request::Ls => {
            let store = unpoison(shared.store.read());
            let mut text = String::new();
            for object in store.list().iter().filter(|o| !o.tombstone) {
                let _ = writeln!(
                    text,
                    "id={} bytes={} capsules={} name={}",
                    object.id,
                    object.bytes,
                    object.capsules.len(),
                    object.name
                );
            }
            drop(store);
            finish(shared, &reply, Response::ok(text));
        }
        Request::Put { name, data } => {
            shared.counters.puts.fetch_add(1, Ordering::Relaxed);
            let mut store = unpoison(shared.store.write());
            let response = match store.put_bytes(&name, &data) {
                Ok(id) => Response::ok(format!("id={id}")),
                Err(e) => storage_error(&e),
            };
            drop(store);
            finish(shared, &reply, response);
        }
        Request::Del { target } => {
            shared.counters.deletes.fetch_add(1, Ordering::Relaxed);
            let mut store = unpoison(shared.store.write());
            let response = match resolve(&store, &target) {
                Some(id) => match store.delete(id) {
                    Ok(()) => Response::ok(format!("deleted id={id}")),
                    Err(e) => storage_error(&e),
                },
                None => Response::err(ErrorCode::NotFound, format!("no object {target:?}")),
            };
            drop(store);
            finish(shared, &reply, response);
        }
        Request::Fetch { target, recover } => {
            shared.counters.fetches.fetch_add(1, Ordering::Relaxed);
            // The read lock covers only resolve + plan; the decode below
            // runs on the plan's own inputs, so a PUT waiting for the
            // write lock never waits for it.
            let planned = {
                let store = unpoison(shared.store.read());
                resolve(&store, &target).map(|id| store.plan_fetch(id).map(|plan| (id, plan)))
            };
            let (id, plan) = match planned {
                Some(Ok(planned)) => planned,
                Some(Err(e)) => return finish(shared, &reply, storage_error(&e)),
                None => {
                    let missing = format!("no object {target:?}");
                    return finish(shared, &reply, Response::err(ErrorCode::NotFound, missing));
                }
            };
            let Some(mut leader) = join_flight(shared, (id, recover), &reply) else {
                return;
            };
            // Give already-queued duplicates a chance to attach before
            // the expensive decode starts: on a loaded single core the
            // decode often finishes within one scheduler quantum, so
            // without this window concurrent identical fetches would
            // rarely overlap the leader and coalescing would be luck.
            std::thread::yield_now();
            let mut body = Vec::new();
            let options = FetchOptions {
                via_recovery: recover,
            };
            let response = match plan.run(&mut body, &options, Some(workspace)) {
                Ok(_report) => Response::Ok(body),
                Err(e) => storage_error(&e),
            };
            leader.land(&response);
            finish(shared, &reply, response);
        }
    }
}

/// Coalesce: one decode per in-flight key. The first fetch of a key
/// leads and gets the [`Leader`] guard. A follower does not block its
/// worker — it parks a clone of `reply` on the flight and the worker
/// goes straight back to the queue, so every queued duplicate attaches
/// to the one decode instead of only the ones workers were holding.
fn join_flight<'a>(
    shared: &'a Shared,
    key: FlightKey,
    reply: &SyncSender<Response>,
) -> Option<Leader<'a>> {
    let mut inflight = unpoison(shared.inflight.lock());
    match inflight.entry(key) {
        Entry::Occupied(entry) => {
            shared
                .counters
                .coalesced_fetches
                .fetch_add(1, Ordering::Relaxed);
            let flight = Arc::clone(entry.get());
            drop(inflight);
            flight.attach(reply.clone());
            None
        }
        Entry::Vacant(slot) => {
            let flight = Arc::new(Flight::default());
            slot.insert(Arc::clone(&flight));
            Some(Leader {
                shared,
                key,
                flight,
                landed: false,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_object::StoreConfig;
    use std::path::PathBuf;
    use std::time::Duration;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dna-server-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn payload(bytes: usize) -> Vec<u8> {
        (0..bytes).map(|i| (i * 37 % 251) as u8).collect()
    }

    fn tiny_server(dir: &PathBuf, workers: usize) -> Server {
        let store = ObjectStore::create(dir, StoreConfig::tiny().unwrap()).unwrap();
        Server::start(
            store,
            &ServeConfig {
                workers,
                queue_depth: 32,
            },
        )
    }

    #[test]
    fn mixed_workload_round_trips_through_the_queue() {
        let dir = tmp_dir("mixed");
        let server = tiny_server(&dir, 2);
        let client = server.client();

        assert_eq!(client.call(Request::Ping), Response::ok(&b"pong"[..]));
        let data = payload(200);
        assert_eq!(client.put("alpha", data.clone()), Response::ok("id=1"));
        assert_eq!(client.put("beta", &b"tiny"[..]), Response::ok("id=2"));
        // Duplicate names are a client error, typed on the wire.
        assert!(matches!(
            client.put("alpha", &b"again"[..]),
            Response::Err(ErrorCode::Bad, _)
        ));

        // Fetch by name and by id; direct and recovery paths agree.
        assert_eq!(client.fetch("alpha", false), Response::Ok(data.clone()));
        assert_eq!(client.fetch("1", false), Response::Ok(data.clone()));
        assert_eq!(client.fetch("alpha", true), Response::Ok(data));

        let ls = match client.ls() {
            Response::Ok(body) => String::from_utf8(body).unwrap(),
            other => panic!("{other:?}"),
        };
        assert_eq!(
            ls,
            "id=1 bytes=200 capsules=3 name=alpha\nid=2 bytes=4 capsules=1 name=beta\n"
        );

        assert_eq!(client.del("beta"), Response::ok("deleted id=2"));
        assert!(matches!(
            client.fetch("beta", false),
            Response::Err(ErrorCode::NotFound, _)
        ));
        assert!(matches!(
            client.fetch("nope", false),
            Response::Err(ErrorCode::NotFound, _)
        ));

        let stats = server.stats();
        assert_eq!(stats.puts, 3);
        assert_eq!(stats.deletes, 1);
        assert!(stats.errors >= 3);

        // Shutdown drains and returns the store with all mutations.
        drop(client);
        let store = server.shutdown().expect("no other handles");
        assert_eq!(store.object_id("alpha"), Some(1));
        assert_eq!(store.object_id("beta"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_duplicate_fetches_coalesce_into_shared_decodes() {
        let dir = tmp_dir("coalesce");
        let server = tiny_server(&dir, 2);
        let client = server.client();
        // ~30 capsules: each decode is long enough that queued
        // duplicates overlap the leader's execution.
        let data = payload(30 * 90);
        assert!(client.put("hot", data.clone()).is_ok());

        let fetchers: Vec<_> = (0..12)
            .map(|_| {
                let client = server.client();
                std::thread::spawn(move || client.fetch("hot", false))
            })
            .collect();
        for fetcher in fetchers {
            assert_eq!(fetcher.join().unwrap(), Response::Ok(data.clone()));
        }
        let stats = server.stats();
        assert_eq!(stats.fetches, 12);
        assert!(
            stats.coalesced_fetches > 0,
            "12 concurrent identical fetches produced zero coalescing"
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_puts_mix_with_direct_and_recovery_fetches() {
        for workers in [1, 4] {
            let dir = tmp_dir(&format!("puts-under-load-w{workers}"));
            let mut store = ObjectStore::create(&dir, StoreConfig::tiny().unwrap()).unwrap();
            let hot: Vec<Vec<u8>> = (0..2).map(|h| payload(4 * 90 + h)).collect();
            for (h, data) in hot.iter().enumerate() {
                store.put_bytes(&format!("hot-{h}"), data).unwrap();
            }
            let hot = Arc::new(hot);
            let server = Server::start(
                store,
                &ServeConfig {
                    workers,
                    queue_depth: 8,
                },
            );
            // Every 5th request is a PUT of a fresh object; the rest
            // fetch a hot object, every other one through recovery.
            let clients: Vec<_> = (0..4)
                .map(|c| {
                    let client = server.client();
                    let hot = Arc::clone(&hot);
                    std::thread::spawn(move || {
                        for i in 0..10 {
                            if (i + 1) % 5 == 0 {
                                let response = client.put(&format!("c{c}-i{i}"), payload(64 + c));
                                assert!(response.is_ok(), "put c{c}-i{i}: {response:?}");
                            } else {
                                let h = (c + i) % 2;
                                let recover = i % 2 == 0;
                                assert_eq!(
                                    client.fetch(&format!("hot-{h}"), recover),
                                    Response::Ok(hot[h].clone()),
                                    "workers={workers} client {c} request {i}"
                                );
                            }
                        }
                    })
                })
                .collect();
            for client in clients {
                client.join().unwrap();
            }
            let stats = server.stats();
            assert_eq!(stats.requests, 40, "workers={workers}");
            assert_eq!(stats.puts, 8, "workers={workers}");
            assert_eq!(stats.fetches, 32, "workers={workers}");
            assert_eq!(stats.errors, 0, "workers={workers}");
            let store = server.shutdown().expect("no other handles");
            assert_eq!(store.list().len(), 2 + 8);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn calls_after_shutdown_fail_busy() {
        let dir = tmp_dir("busy");
        let server = tiny_server(&dir, 1);
        let client = server.client();
        // A clone outlives shutdown() — the server reports that and
        // keeps the (unreachable) store rather than panicking.
        assert!(server.shutdown().is_none());
        assert!(matches!(
            client.call(Request::Ping),
            Response::Err(ErrorCode::Busy, _)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unwinding_leader_answers_its_followers_and_clears_the_flight() {
        let dir = tmp_dir("unwind-leader");
        let server = tiny_server(&dir, 1);
        let shared = &*server.shared;
        let (leader_tx, _leader_rx) = sync_channel(1);
        let (follower_tx, follower_rx) = sync_channel(1);
        let leader = join_flight(shared, (1, false), &leader_tx).expect("the first fetch leads");
        assert!(join_flight(shared, (1, false), &follower_tx).is_none());
        let unwound = catch_unwind(AssertUnwindSafe(move || {
            let _leader = leader;
            panic!("decode panicked");
        }));
        assert!(unwound.is_err());
        assert!(matches!(
            follower_rx.recv_timeout(Duration::from_secs(10)),
            Ok(Response::Err(ErrorCode::Internal, _))
        ));
        assert!(unpoison(shared.inflight.lock()).is_empty());
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_request_is_answered_and_its_worker_lives_on() {
        let dir = tmp_dir("unwind-worker");
        let store = ObjectStore::create(&dir, StoreConfig::tiny().unwrap()).unwrap();
        let shared = Arc::new(Shared::new(store, 4));
        // One worker whose handler panics on PING and serves the rest.
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                worker_loop(&shared, |shared, job, workspace| {
                    assert!(!matches!(job.request, Request::Ping), "injected panic");
                    handle(shared, job, workspace);
                });
            })
        };
        let client = LocalClient {
            shared: Arc::clone(&shared),
        };
        assert!(matches!(
            client.call(Request::Ping),
            Response::Err(ErrorCode::Internal, _)
        ));
        assert_eq!(
            client.put("after", &b"still here"[..]),
            Response::ok("id=1")
        );
        assert_eq!(
            client.fetch("after", false),
            Response::Ok(b"still here".to_vec())
        );
        assert_eq!(shared.counters.snapshot().errors, 1);
        shared.queue.close();
        worker.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_forged_capsule_header_is_an_error_not_an_abort() {
        // A header rewritten with units = u32::MAX (CRC-32 still valid)
        // once sized a 644 GB strand read and aborted the server.
        use dna_object::capsule::CapsuleHeader;
        use std::io::{Seek, SeekFrom};
        let dir = tmp_dir("forged");
        let server = tiny_server(&dir, 2);
        let client = server.client();
        let data = payload(150);
        assert_eq!(client.put("victim", data.clone()), Response::ok("id=1"));
        assert_eq!(client.put("other", data.clone()), Response::ok("id=2"));
        {
            let store = server.shared.store.read().unwrap();
            let offset = store.manifest().capsule(1).unwrap().offset;
            let primer_len = usize::from(store.header().primer_len);
            let path = dir.join(dna_object::POOL_FILE);
            let mut file = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(path)
                .unwrap();
            file.seek(SeekFrom::Start(offset)).unwrap();
            let mut cap = CapsuleHeader::read_from(&mut file, primer_len).unwrap();
            cap.units = u32::MAX;
            file.seek(SeekFrom::Start(offset)).unwrap();
            cap.write_to(&mut file).unwrap();
        }
        match client.fetch("victim", false) {
            Response::Err(ErrorCode::Internal, message) => {
                assert!(message.contains("4294967295"), "{message}");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(client.call(Request::Ping), Response::ok(&b"pong"[..]));
        assert_eq!(client.fetch("other", false), Response::Ok(data));
        drop(client);
        server.shutdown().expect("no other handles");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_poisoned_store_lock_keeps_serving() {
        let dir = tmp_dir("poisoned");
        let server = tiny_server(&dir, 2);
        let client = server.client();
        let data = payload(200);
        assert_eq!(client.put("alpha", data.clone()), Response::ok("id=1"));
        let shared = Arc::clone(&server.shared);
        let poisoner = std::thread::spawn(move || {
            let _store = shared.store.write().unwrap();
            panic!("panicked while holding the store's write lock");
        });
        assert!(poisoner.join().is_err());
        assert!(server.shared.store.is_poisoned());

        assert_eq!(client.call(Request::Ping), Response::ok(&b"pong"[..]));
        assert_eq!(
            client.ls(),
            Response::ok("id=1 bytes=200 capsules=3 name=alpha\n")
        );
        assert_eq!(client.fetch("alpha", false), Response::Ok(data));
        assert_eq!(client.put("beta", &b"tiny"[..]), Response::ok("id=2"));
        assert_eq!(client.fetch("beta", false), Response::Ok(b"tiny".to_vec()));
        drop(client);
        let store = server.shutdown().expect("no other handles");
        assert_eq!(store.object_id("beta"), Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
