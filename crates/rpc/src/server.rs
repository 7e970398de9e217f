//! The RPC server: a TCP listener, a pooled thread per connection, a
//! handler closure per message. The handshake rejects peers with version
//! skew before any application message is exchanged.
//!
//! Nothing here polls. The accept thread blocks in `accept` and each
//! connection thread blocks in `read`; [`RpcServer::stop`] wakes them by
//! the events they are blocked on — a connection to its own listener for
//! the first, a read-half `shutdown` of every live socket for the rest —
//! so stopping costs a loopback connect, not an accept-poll period plus a
//! read deadline. `AcceptLoop` is that lifecycle, shared with the chaos
//! proxy ([`crate::chaos`]): the one accept loop of this crate. Its accept
//! and connection threads come from the process-wide [`crate::pool`], so a
//! server that lives for one job costs no thread start once the pool is
//! warm.

use crate::frame::{read_frame, write_frame, FrameError};
use crate::msg::{Msg, MAGIC, PROTOCOL_VERSION};
use crate::pool::{self, Task};
use std::io;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The per-message application handler. Returns the reply to frame back.
pub type Handler = Arc<dyn Fn(Msg) -> Msg + Send + Sync>;

/// A listener thread handing each accepted connection to a (pooled) thread
/// of its own. The owner holds the handle; [`stop`](Self::stop) (or drop)
/// ends the accept thread and every connection thread and joins them.
pub(crate) struct AcceptLoop {
    addr: String,
    stop: Arc<AtomicBool>,
    thread: Option<Task<()>>,
}

impl AcceptLoop {
    /// Bind `addr` and start accepting. `on_accept` runs on the accept
    /// thread, in accept order, and returns the job to run on the new
    /// connection's thread; it is handed the stream and the loop's stop
    /// flag. The connection is shut down when its job returns.
    ///
    /// The stream is shared, not `try_clone`d: a descriptor per connection
    /// more, in a process full of threads, brings the kernel's descriptor
    /// table to its next doubling sooner, and every thread opening a socket
    /// waits out that resize (an RCU grace period — 10–25 ms measured).
    pub(crate) fn spawn<A, C>(addr: &str, mut on_accept: A) -> io::Result<Self>
    where
        A: FnMut(Arc<TcpStream>, Arc<AtomicBool>) -> C + Send + 'static,
        C: FnOnce() + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?.to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let thread = pool::spawn(move || {
            // Each live connection's thread, and its socket to wake that
            // thread with.
            let mut conns: Vec<(Task<()>, Arc<TcpStream>)> = Vec::new();
            loop {
                let accepted = listener.accept();
                if stop2.load(Ordering::SeqCst) {
                    break; // `stop` woke us (or raced a real peer: too late)
                }
                let Ok((stream, _)) = accepted else { break };
                conns.retain(|(thread, _)| !thread.is_finished());
                let stream = Arc::new(stream);
                let job = on_accept(stream.clone(), stop2.clone());
                let ours = stream.clone();
                let thread = pool::spawn(move || {
                    job();
                    // This list's handle keeps the descriptor open past the
                    // job, so hanging up has to be said, not left to a drop.
                    let _ = ours.shutdown(Shutdown::Both);
                });
                conns.push((thread, stream));
            }
            // Read half only: a thread blocked in `read` sees end-of-stream
            // at once, one that is mid-reply still gets its bytes out.
            for (_, stream) in &conns {
                let _ = stream.shutdown(Shutdown::Read);
            }
            for (thread, _) in conns {
                let _ = thread.join();
            }
        });
        Ok(Self { addr: local, stop, thread: Some(thread) })
    }

    /// The bound address (resolves port 0 to the real port).
    pub(crate) fn addr(&self) -> &str {
        &self.addr
    }

    /// Stop accepting, wake every connection, join all threads.
    pub(crate) fn stop(&mut self) {
        let Some(thread) = self.thread.take() else { return };
        self.stop.store(true, Ordering::SeqCst);
        // The accept thread is blocked in `accept`: connecting to it is the
        // event that wakes it. If even that fails, joining would hang; the
        // thread is left to exit at its next connection.
        if thread.is_finished() || TcpStream::connect(&self.addr).is_ok() {
            let _ = thread.join();
        }
    }
}

impl Drop for AcceptLoop {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A running RPC server. Dropping it (or calling [`stop`](Self::stop))
/// shuts the accept loop and every connection down and joins them.
pub struct RpcServer(AcceptLoop);

impl RpcServer {
    /// Bind `addr` (use port 0 for an OS-assigned port — the actual
    /// address is [`addr`](Self::addr)) and serve each decoded message
    /// through `handler`. `read_timeout` is the read and write deadline on
    /// every connection; an idle connection just re-arms it.
    pub fn bind(
        addr: &str,
        handler: Handler,
        read_timeout: Duration,
    ) -> io::Result<Self> {
        AcceptLoop::spawn(addr, move |stream, stop| {
            let handler = handler.clone();
            move || {
                let _ = serve_conn(&stream, handler, stop, read_timeout);
            }
        })
        .map(Self)
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn addr(&self) -> &str {
        self.0.addr()
    }

    /// Stop accepting, wake idle connections, join all threads.
    pub fn stop(&mut self) {
        self.0.stop();
    }
}

fn serve_conn(
    mut stream: &TcpStream,
    handler: Handler,
    stop: Arc<AtomicBool>,
    read_timeout: Duration,
) -> Result<(), FrameError> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(read_timeout))?;
    stream.set_write_timeout(Some(read_timeout))?;

    // Handshake: first frame must be a well-versed Hello.
    let hello = Msg::decode(&read_frame(&mut stream)?)?;
    match hello {
        Msg::Hello { magic, version }
            if magic == MAGIC && version == PROTOCOL_VERSION =>
        {
            write_frame(&mut stream, &Msg::HelloAck { version: PROTOCOL_VERSION }.encode())?;
        }
        Msg::Hello { version, .. } => {
            // Wrong magic or version: tell the peer what we speak, close.
            write_frame(
                &mut stream,
                &Msg::HelloReject { expected: PROTOCOL_VERSION, got: version }.encode(),
            )?;
            return Ok(());
        }
        _ => return Ok(()), // not even a Hello; drop silently
    }

    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(FrameError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue; // idle; poll the stop flag and keep listening
            }
            Err(_) => return Ok(()), // peer hung up (or framed garbage)
        };
        let msg = match Msg::decode(&payload) {
            Ok(m) => m,
            Err(_) => return Ok(()), // garbage message: close the connection
        };
        let reply = handler(msg);
        write_frame(&mut stream, &reply.encode())?;
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{RetryPolicy, RpcClient, RpcError};

    fn echo_server() -> RpcServer {
        RpcServer::bind(
            "127.0.0.1:0",
            Arc::new(|msg| match msg {
                Msg::WhereIs { map } => Msg::MapAt { node: map, addr: format!("echo:{map}"), attempt: 0 },
                other => other,
            }),
            Duration::from_millis(20),
        )
        .expect("bind")
    }

    #[test]
    fn handshake_then_calls_round_trip() {
        let server = echo_server();
        let mut client = RpcClient::connect(
            server.addr(),
            RetryPolicy::default(),
            Duration::from_secs(2),
        )
        .expect("connect");
        for map in 0..5 {
            let reply = client.call(&Msg::WhereIs { map }).expect("call");
            assert_eq!(reply, Msg::MapAt { node: map, addr: format!("echo:{map}"), attempt: 0 });
        }
        assert_eq!(client.retry_counter().load(Ordering::Relaxed), 0);
    }

    #[test]
    fn version_skew_is_rejected() {
        let server = echo_server();
        // Speak the raw protocol with a wrong version.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write_frame(
            &mut stream,
            &Msg::Hello { magic: MAGIC, version: PROTOCOL_VERSION + 1 }.encode(),
        )
        .unwrap();
        let reply = Msg::decode(&read_frame(&mut stream).unwrap()).unwrap();
        assert_eq!(
            reply,
            Msg::HelloReject { expected: PROTOCOL_VERSION, got: PROTOCOL_VERSION + 1 }
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write_frame(
            &mut stream,
            &Msg::Hello { magic: 0xBAD0_BAD0, version: PROTOCOL_VERSION }.encode(),
        )
        .unwrap();
        let reply = Msg::decode(&read_frame(&mut stream).unwrap()).unwrap();
        assert!(matches!(reply, Msg::HelloReject { .. }));
    }

    #[test]
    fn client_reconnects_after_server_restart() {
        let mut server = echo_server();
        let addr = server.addr().to_string();
        let mut client =
            RpcClient::connect(&addr, RetryPolicy::default(), Duration::from_secs(2))
                .expect("connect");
        assert!(client.call(&Msg::Ack).is_ok());
        server.stop();
        drop(server);
        // Rebind on the same port so the client's redial can succeed.
        let server2 = RpcServer::bind(
            &addr,
            Arc::new(|msg| msg),
            Duration::from_millis(20),
        )
        .expect("rebind");
        let reply = client.call(&Msg::Shutdown).expect("retried call");
        assert_eq!(reply, Msg::Shutdown);
        assert!(client.retry_counter().load(Ordering::Relaxed) >= 1);
        drop(server2);
    }

    #[test]
    fn call_to_stopped_server_exhausts_budget() {
        let mut server = echo_server();
        let addr = server.addr().to_string();
        let policy = RetryPolicy {
            max_attempts: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            seed: 3,
        };
        let mut client =
            RpcClient::connect(&addr, policy, Duration::from_millis(200)).expect("connect");
        server.stop();
        drop(server);
        let err = client.call(&Msg::Ack).expect_err("server is gone");
        assert!(matches!(err, RpcError::Frame(_)), "{err}");
    }

    /// `stop` wakes a connection blocked in `read` instead of waiting for
    /// its read deadline to notice the flag: with a 5 s deadline and an
    /// idle client attached, stopping takes milliseconds.
    #[test]
    fn stop_does_not_wait_out_an_idle_connections_read_timeout() {
        let mut server =
            RpcServer::bind("127.0.0.1:0", Arc::new(|msg| msg), Duration::from_secs(5))
                .expect("bind");
        let mut idle =
            RpcClient::connect(server.addr(), RetryPolicy::default(), Duration::from_secs(5))
                .expect("connect");
        assert_eq!(idle.call(&Msg::Ack).expect("call"), Msg::Ack);
        let t = std::time::Instant::now();
        server.stop();
        let took = t.elapsed();
        assert!(took < Duration::from_millis(500), "stop took {took:?}");
    }

    /// The accept thread blocks in `accept`, so a dial is served when it
    /// arrives, not at the next poll: 100 connect + handshake round trips
    /// take less than 100 periods of the 2 ms poll this replaced.
    #[test]
    fn connects_are_accepted_without_a_poll_period() {
        let server = echo_server();
        let t = std::time::Instant::now();
        for _ in 0..100 {
            RpcClient::connect(server.addr(), RetryPolicy::default(), Duration::from_secs(2))
                .expect("connect");
        }
        let took = t.elapsed();
        assert!(took < Duration::from_millis(200), "100 connects took {took:?}");
    }

    /// A call the handler is still working on when `stop` lands gets its
    /// reply: stopping shuts the read half only.
    #[test]
    fn stop_lets_a_reply_in_flight_out() {
        let (entered_tx, entered_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (entered_tx, release_rx) =
            (std::sync::Mutex::new(entered_tx), std::sync::Mutex::new(release_rx));
        let mut server = RpcServer::bind(
            "127.0.0.1:0",
            Arc::new(move |msg| {
                entered_tx.lock().unwrap().send(()).unwrap();
                release_rx.lock().unwrap().recv().unwrap();
                msg
            }),
            Duration::from_secs(5),
        )
        .expect("bind");
        let addr = server.addr().to_string();
        let caller = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let policy = RetryPolicy { max_attempts: 1, ..RetryPolicy::default() };
                RpcClient::connect(addr, policy, Duration::from_secs(5))
                    .and_then(|mut c| c.call(&Msg::WhereIs { map: 7 }))
            })
        };
        entered_rx.recv().expect("the handler is running");
        // A second, idle connection, accepted after the caller's. `stop`
        // wakes connections in accept order, so when this one is hung up
        // on, the caller's read half has already been shut.
        let mut idle = TcpStream::connect(&addr).unwrap();
        idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_frame(&mut idle, &Msg::Hello { magic: MAGIC, version: PROTOCOL_VERSION }.encode())
            .unwrap();
        read_frame(&mut idle).expect("HelloAck: the idle connection is being served");
        let stopper = std::thread::spawn(move || server.stop());
        assert!(read_frame(&mut idle).is_err(), "stop hangs up on the idle connection");
        release_tx.send(()).unwrap();
        stopper.join().unwrap();
        assert_eq!(caller.join().unwrap().expect("reply"), Msg::WhereIs { map: 7 });
    }
}
