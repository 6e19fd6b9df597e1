//! Long-lived service front-end for the DNA object store.
//!
//! A [`Server`] owns one [`ObjectStore`](dna_object::ObjectStore)
//! behind a read/write lock and runs N decode workers, each holding a
//! warm [`DecodeWorkspace`](dna_storage::DecodeWorkspace) for its whole
//! life — resident decode scratch is bounded by the worker count, not
//! by how many OS threads ever touched a thread-local. Requests enter
//! through a [bounded queue](queue::Bounded) (backpressure instead of
//! unbounded buffering), arrive either in-process ([`LocalClient`]) or
//! over loopback TCP ([`serve_tcp`]) speaking the line/length-prefixed
//! [`protocol`], and concurrent fetches of the same object coalesce
//! into one shared decode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;
pub mod queue;
pub mod server;
pub mod tcp;

pub use protocol::{ErrorCode, Frame, Request, Response, MAX_FRAME_BYTES};
pub use server::{LocalClient, ServeConfig, Server, StatsSnapshot};
pub use tcp::{serve_tcp, TcpHandle};
