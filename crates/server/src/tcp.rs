//! Loopback TCP front-end: one accept loop, one lightweight thread per
//! connection, every parsed request funneled into the same bounded
//! queue and worker pool as in-process clients.

use crate::protocol::{read_frame, write_response, ErrorCode, Frame, Response};
use crate::server::{LocalClient, Server};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running TCP listener; dropping it leaves the listener running, use
/// [`TcpHandle::stop`] for an orderly stop.
pub struct TcpHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<()>,
}

impl TcpHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting new connections and joins the accept loop.
    /// In-flight connections finish on their own threads.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
    }
}

/// Binds `addr` and serves connections against `server`'s worker pool.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve_tcp(server: &Server, addr: impl ToSocketAddrs) -> io::Result<TcpHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept = {
        let stop = Arc::clone(&stop);
        let client = server.client();
        std::thread::Builder::new()
            .name("dna-serve-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let client = client.clone();
                    let _ = std::thread::Builder::new()
                        .name("dna-serve-conn".into())
                        .spawn(move || {
                            let _ = serve_connection(&stream, &client);
                            // Release the server handle before closing the
                            // socket: a peer that reads EOF knows this
                            // connection no longer keeps the server alive.
                            drop(client);
                            drop(stream);
                        });
                }
            })?
    };
    Ok(TcpHandle { addr, stop, accept })
}

fn serve_connection(stream: &TcpStream, client: &LocalClient) -> io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(stream);
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            // Clean EOF at a frame boundary: the peer is done.
            Ok(None) => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // A malformed line is answerable; a desynced body is not.
                write_response(&mut writer, &Response::err(ErrorCode::Bad, e.to_string()))?;
                writer.flush()?;
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        match frame {
            Frame::Quit => return Ok(()),
            Frame::Request(request) => {
                let response = client.call(request);
                write_response(&mut writer, &response)?;
                writer.flush()?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_response, write_quit, write_request, Request};
    use crate::server::ServeConfig;
    use dna_object::{ObjectStore, StoreConfig};
    use std::io::Read;

    fn read_to_eof(mut reader: impl Read) -> Vec<u8> {
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        rest
    }

    #[test]
    fn tcp_round_trip_matches_in_process_results() {
        let dir = std::env::temp_dir().join(format!("dna-server-tcp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ObjectStore::create(&dir, StoreConfig::tiny().unwrap()).unwrap();
        let server = Server::start(store, &ServeConfig::default());
        let handle = serve_tcp(&server, "127.0.0.1:0").unwrap();

        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let data: Vec<u8> = (0..300u32).map(|i| (i % 256) as u8).collect();

        write_request(&mut writer, &Request::Ping).unwrap();
        write_request(
            &mut writer,
            &Request::Put {
                name: "wire".into(),
                data: data.clone(),
            },
        )
        .unwrap();
        write_request(
            &mut writer,
            &Request::Fetch {
                target: "wire".into(),
                recover: false,
            },
        )
        .unwrap();
        write_request(
            &mut writer,
            &Request::Del {
                target: "missing".into(),
            },
        )
        .unwrap();
        writer.flush().unwrap();

        assert_eq!(
            read_response(&mut reader).unwrap(),
            Response::ok(&b"pong"[..])
        );
        assert_eq!(read_response(&mut reader).unwrap(), Response::ok("id=1"));
        assert_eq!(read_response(&mut reader).unwrap(), Response::Ok(data));
        assert!(matches!(
            read_response(&mut reader).unwrap(),
            Response::Err(ErrorCode::NotFound, _)
        ));

        write_quit(&mut writer).unwrap();
        writer.flush().unwrap();
        assert_eq!(read_to_eof(reader), b"");
        drop(writer);

        // A second connection sees a malformed verb answered and closed.
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        writer.write_all(b"BOGUS\n").unwrap();
        writer.flush().unwrap();
        assert!(matches!(
            read_response(&mut reader).unwrap(),
            Response::Err(ErrorCode::Bad, _)
        ));
        assert_eq!(read_to_eof(reader), b"");

        // Both connections reached EOF, so their threads have released
        // the server: shutdown sees no live clients.
        handle.stop();
        let store = server.shutdown().expect("no live clients");
        assert_eq!(store.object_id("wire"), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
