//! The serve front end: a few epoll readiness loops own the connections,
//! a bounded worker pool runs the searches.
//!
//! A connection (cheap, often idle for minutes) and a worker (expensive,
//! needed only while a search runs) are separate resources, so idle
//! keep-alive clients cannot starve the pool. The roles are split:
//!
//! - **The event loops**, one per usable CPU (at most one per worker),
//!   each own a share of the connections and their read/write buffers.
//!   Loop 0 also owns the listener and deals accepted connections
//!   round-robin to every loop. A loop reads nonblocking sockets into
//!   per-connection buffers, splits out complete request lines, flushes
//!   responses, and closes idle or hostile connections. An idle
//!   connection costs the bytes of its [`Conn`] struct — no thread, no
//!   sleep-poll.
//!   A loop also parses each request line and answers the cheap ones in
//!   place: a single search whose graph digest is memoized and whose
//!   entry is resident in memory costs one key, one lookup and one
//!   serialize ([`answer_hit`]), with no worker hop at all. With one
//!   loop per CPU, hits from different clients do not queue behind each
//!   other on one core.
//! - **The worker pool** ([`crate::ServerConfig::workers`] threads sharing
//!   one channel) gets everything else as parsed [`Job`]s —
//!   misses, batches, disk-only entries, coalesced waits, stats probes
//!   and parse errors — so no line is parsed twice. Finished responses
//!   go back to the loop the job came from through its [`Mailbox`] plus
//!   a [`WakePipe`] byte, so a loop wakes exactly when there is work, not
//!   on a timer.
//!
//! At most one job per connection is in flight at a time — responses
//! stay in request order and one chatty client cannot monopolize the
//! pool; its later lines wait in `Conn::pending` until the earlier
//! response is handed back, and only then are they answered (inline or
//! by a worker).
//!
//! Only a *complete* request line (or a served response) refreshes a
//! connection's idle clock, so a slow-loris client dribbling bytes without
//! a newline is closed at the same deadline as a silent one.

#![cfg(target_os = "linux")]

use crate::protocol::{write_error_json, RequestKind};
use crate::reactor::{Interest, Reactor, WakePipe, Waker};
use crate::server::{answer_hit, handle_request, summarize, ServeSummary, Shared, MAX_LINE};
use pase_core::Error;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

const LISTENER: u64 = 0;
const WAKER: u64 = 1;
const FIRST_CONN: u64 = 2;

/// Reactor wait granularity: bounds how stale the idle sweep and the
/// shutdown-flag check can be. Nothing sleeps at this cadence — readiness
/// and completions wake the loop immediately.
const TICK: Duration = Duration::from_millis(10);

/// Per-event read cap. Level-triggered epoll re-reports a socket with
/// unread bytes, so stopping here bounds one connection's share of a loop
/// iteration without losing data.
const READ_BUDGET: usize = 16 * 4096;

/// How long after a shutdown request idle connections are kept so that
/// requests already in their socket buffers can be read and served — the
/// drain guarantee.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(20);

/// A parsed request line headed for the worker pool.
struct Job {
    token: u64,
    /// The event loop that owns the connection.
    origin: usize,
    request: Result<RequestKind, Error>,
}

/// A rendered response (newline included) headed back to its connection.
struct Done {
    token: u64,
    response: String,
}

/// Per-connection state owned by its event loop.
struct Conn {
    stream: TcpStream,
    /// Raw bytes read but not yet split into lines.
    inbuf: Vec<u8>,
    /// Complete lines waiting their turn in the worker pool.
    pending: VecDeque<String>,
    /// Rendered-but-unflushed response bytes.
    out: Vec<u8>,
    /// A job for this connection is in the pool right now.
    in_flight: bool,
    /// The peer sent EOF (or hung up); serve what is buffered, then close.
    read_closed: bool,
    /// Close as soon as `out` drains (protocol violation, e.g. oversized
    /// line).
    closing: bool,
    /// What the fd is currently registered for (`None` = deregistered).
    registered: Option<Interest>,
    /// Last complete request line or served response — the idle clock.
    /// Partial input does *not* refresh it (slow-loris).
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            inbuf: Vec::new(),
            pending: VecDeque::new(),
            out: Vec::new(),
            in_flight: false,
            read_closed: false,
            closing: false,
            registered: Some(Interest::READ),
            last_activity: Instant::now(),
        }
    }

    /// Nothing buffered, nothing in flight: safe to close without losing
    /// a request or a response.
    fn is_idle(&self) -> bool {
        !self.in_flight && self.pending.is_empty() && self.out.is_empty()
    }

    /// Read until `WouldBlock`, EOF, or the per-event budget; split
    /// complete lines into `pending`. Returns `false` on a fatal error.
    fn read_ready(&mut self) -> bool {
        if !self.read_closed {
            let mut taken = 0;
            loop {
                let mut chunk = [0u8; 4096];
                match self.stream.read(&mut chunk) {
                    Ok(0) => {
                        self.read_closed = true;
                        break;
                    }
                    Ok(n) => {
                        self.inbuf.extend_from_slice(&chunk[..n]);
                        taken += n;
                        // A short read drained the socket, so skip the
                        // read that would only say WouldBlock. Either way
                        // level-triggered epoll re-reports what arrives
                        // later, EOF included.
                        if n < chunk.len() || taken >= READ_BUDGET {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => return false,
                }
            }
        }
        while let Some(nl) = self.inbuf.iter().position(|&b| b == b'\n') {
            let rest = self.inbuf.split_off(nl + 1);
            let mut line = std::mem::replace(&mut self.inbuf, rest);
            line.pop(); // the newline
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            self.last_activity = Instant::now();
            let line = String::from_utf8_lossy(&line).into_owned();
            if line.trim().is_empty() {
                continue;
            }
            self.pending.push_back(line);
        }
        if !self.closing && self.inbuf.len() > MAX_LINE {
            let mut err = String::new();
            write_error_json(
                &mut err,
                &Error::Protocol(format!("request line exceeds {MAX_LINE} bytes")),
            );
            err.push('\n');
            // Answer the violation, drop everything else, close after the
            // in-flight job (if any) and this error flush.
            self.out.extend_from_slice(err.as_bytes());
            self.inbuf = Vec::new();
            self.pending.clear();
            self.read_closed = true;
            self.closing = true;
        }
        true
    }

    /// Write as much of `out` as the socket takes. Returns `false` on a
    /// fatal error.
    fn flush(&mut self) -> bool {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return false,
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }
}

/// How many event loops serve connections: one per CPU the process may
/// use, at most one per worker. A hit answered in place costs its loop a
/// few microseconds, so a single loop would serialize every active
/// client's hits on one core.
fn loop_count(workers: usize) -> usize {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    cpus.min(workers).max(1)
}

/// What other threads hand one event loop — finished responses from the
/// workers and, from the accepting loop, newly accepted connections —
/// each followed by a byte down the loop's [`WakePipe`].
struct Mailbox {
    done: Mutex<Vec<Done>>,
    accepted: Mutex<Vec<TcpStream>>,
    waker: Waker,
}

impl Mailbox {
    fn complete(&self, done: Done) {
        self.done.lock().expect("completions").push(done);
        self.waker.wake();
    }

    fn adopt(&self, stream: TcpStream) {
        self.accepted.lock().expect("accepted").push(stream);
        self.waker.wake();
    }
}

/// Serve on the bound listener until shutdown. Called from
/// [`crate::Server::run`]; returns the totals once every worker has
/// drained.
///
/// Loop 0 runs on the calling thread and owns the listener; it deals
/// accepted connections round-robin to every loop, itself included. Each
/// loop then owns its connections for their whole life. The worker pool
/// is shared, and a job's response goes back to the loop it came from.
pub(crate) fn run(listener: TcpListener, shared: Arc<Shared>) -> std::io::Result<ServeSummary> {
    listener.set_nonblocking(true)?;
    let loops = loop_count(shared.cfg.workers);
    // Every loop's reactor and pipe exist before any loop starts, so a
    // loop cannot fail to start after connections were dealt to it.
    let mut reactors = (0..loops)
        .map(|_| Reactor::new())
        .collect::<std::io::Result<Vec<_>>>()?;
    let pipes = (0..loops)
        .map(|_| WakePipe::new())
        .collect::<std::io::Result<Vec<_>>>()?;
    let mailboxes: Arc<Vec<Mailbox>> = Arc::new(
        pipes
            .iter()
            .map(|pipe| Mailbox {
                done: Mutex::new(Vec::new()),
                accepted: Mutex::new(Vec::new()),
                waker: pipe.waker(),
            })
            .collect(),
    );

    let (tx, rx) = mpsc::channel::<Job>();
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<_> = (0..shared.cfg.workers.max(1))
        .map(|_| {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            let mailboxes = Arc::clone(&mailboxes);
            std::thread::spawn(move || loop {
                let job = match rx.lock().expect("worker queue").recv() {
                    Ok(job) => job,
                    Err(_) => break, // every event loop closed its sender
                };
                let mut response = String::new();
                handle_request(job.request, &shared, &mut response);
                response.push('\n');
                mailboxes[job.origin].complete(Done {
                    token: job.token,
                    response,
                });
            })
        })
        .collect();

    let accepting = AtomicBool::new(true);
    let result = std::thread::scope(|scope| {
        let event_loop = |id: usize| EventLoop {
            id,
            shared: &shared,
            mailboxes: &mailboxes,
            accepting: &accepting,
            tx: tx.clone(),
            scratch: String::new(),
        };
        let first_reactor = reactors.remove(0);
        let others: Vec<_> = reactors
            .into_iter()
            .enumerate()
            .map(|(i, reactor)| {
                let lp = event_loop(i + 1);
                let pipe = &pipes[i + 1];
                scope.spawn(move || lp.run(reactor, None, pipe))
            })
            .collect();
        let first = event_loop(0).run(first_reactor, Some(&listener), &pipes[0]);
        if first.is_err() {
            // Loop 0 died: stop the others too, they would never see
            // the listener close.
            shared.shutdown.store(true, Ordering::SeqCst);
        }
        accepting.store(false, Ordering::SeqCst);
        others
            .into_iter()
            .map(|h| h.join().expect("event loop panicked"))
            .fold(first, |acc, r| acc.and(r))
    });

    // Every loop has dropped its sender: the workers finish their jobs and
    // exit. Joining before `pipes` drops keeps every Waker fd-copy valid.
    drop(tx);
    for w in workers {
        let _ = w.join();
    }
    result.map(|()| summarize(&shared))
}

/// One event loop: what it shares with the other loops and the workers.
/// Its reactor and connections live on its thread's stack.
struct EventLoop<'a> {
    /// This loop's mailbox index, which its jobs carry as their origin.
    id: usize,
    shared: &'a Shared,
    mailboxes: &'a [Mailbox],
    /// Cleared by loop 0 once it has stopped accepting and dealt out the
    /// last connection; the other loops start their shutdown grace only
    /// after that.
    accepting: &'a AtomicBool,
    tx: mpsc::Sender<Job>,
    /// Reused render buffer for the responses answered in place.
    scratch: String,
}

impl EventLoop<'_> {
    /// Serve until shutdown has been requested and every connection is
    /// drained. `listener` is `Some` for loop 0 only.
    fn run(
        mut self,
        mut reactor: Reactor,
        listener: Option<&TcpListener>,
        wake: &WakePipe,
    ) -> std::io::Result<()> {
        if let Some(listener) = listener {
            reactor.register(listener.as_raw_fd(), LISTENER, Interest::READ)?;
        }
        reactor.register(wake.read_fd(), WAKER, Interest::READ)?;

        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_token = FIRST_CONN;
        let mut dealt = 0usize; // loop 0: connections accepted so far
        let mut events = Vec::new();
        let mut shutdown_at: Option<Instant> = None;
        loop {
            if shutdown_at.is_none() && self.shared.shutdown.load(Ordering::SeqCst) {
                if let Some(listener) = listener {
                    // Connections whose handshake completed before
                    // shutdown still get served: drain the backlog once,
                    // then stop listening.
                    self.accept_all(listener, &reactor, &mut conns, &mut next_token, &mut dealt);
                    let _ = reactor.deregister(listener.as_raw_fd());
                    self.accepting.store(false, Ordering::SeqCst);
                }
                if !self.accepting.load(Ordering::SeqCst) {
                    shutdown_at = Some(Instant::now());
                }
            }
            if let Some(t0) = shutdown_at {
                self.adopt_accepted(&reactor, &mut conns, &mut next_token);
                if t0.elapsed() >= SHUTDOWN_GRACE {
                    // Grace over: one final read per idle connection
                    // (bytes already in the socket buffer must still be
                    // answered), then close whatever has no work.
                    let idle: Vec<u64> = conns
                        .iter()
                        .filter(|(_, c)| c.is_idle())
                        .map(|(&t, _)| t)
                        .collect();
                    for token in idle {
                        let Some(conn) = conns.get_mut(&token) else {
                            continue;
                        };
                        let keep = conn.read_ready()
                            && self.advance(conn, token, &reactor)
                            && !conn.is_idle();
                        if !keep {
                            close_conn(&reactor, &mut conns, token);
                        }
                    }
                }
                if conns.is_empty() {
                    return Ok(());
                }
            }

            events.clear();
            reactor.wait(TICK, |ev| events.push(ev))?;

            for ev in &events {
                match ev.token {
                    LISTENER => {
                        if let Some(listener) = listener.filter(|_| shutdown_at.is_none()) {
                            self.accept_all(
                                listener,
                                &reactor,
                                &mut conns,
                                &mut next_token,
                                &mut dealt,
                            );
                        }
                    }
                    WAKER => {
                        wake.drain();
                        self.adopt_accepted(&reactor, &mut conns, &mut next_token);
                    }
                    token => {
                        let Some(conn) = conns.get_mut(&token) else {
                            continue;
                        };
                        let mut keep = true;
                        if ev.readable || ev.hangup {
                            // A hangup may still have final bytes
                            // buffered; read_ready picks up both the data
                            // and the EOF.
                            keep = conn.read_ready();
                        }
                        if keep && ev.writable {
                            keep = conn.flush();
                        }
                        if keep {
                            keep = self.advance(conn, token, &reactor);
                        }
                        if !keep {
                            close_conn(&reactor, &mut conns, token);
                        }
                    }
                }
            }

            // Hand completed responses back to their connections.
            let done: Vec<Done> =
                std::mem::take(&mut *self.mailboxes[self.id].done.lock().expect("completions"));
            for d in done {
                let Some(conn) = conns.get_mut(&d.token) else {
                    continue; // connection died while its search ran
                };
                conn.in_flight = false;
                conn.out.extend_from_slice(d.response.as_bytes());
                conn.last_activity = Instant::now();
                if !self.advance(conn, d.token, &reactor) {
                    close_conn(&reactor, &mut conns, d.token);
                }
            }

            // Idle sweep: a connection with no complete line and no
            // pending work for idle_timeout is closed — this is what makes
            // slow-loris and silent keep-alive clients cost nothing but
            // these bytes. A connection whose peer stopped reading its
            // response is caught by the same clock (flush progress does
            // not refresh it).
            let now = Instant::now();
            let timeout = self.shared.cfg.idle_timeout;
            let expired: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| {
                    !c.in_flight
                        && c.pending.is_empty()
                        && now.duration_since(c.last_activity) >= timeout
                })
                .map(|(&t, _)| t)
                .collect();
            for token in expired {
                close_conn(&reactor, &mut conns, token);
            }
        }
    }

    /// Accept until the backlog is empty, dealing connections round-robin
    /// over the loops: this loop registers its own share, the others
    /// adopt theirs from their mailboxes.
    fn accept_all(
        &self,
        listener: &TcpListener,
        reactor: &Reactor,
        conns: &mut HashMap<u64, Conn>,
        next_token: &mut u64,
        dealt: &mut usize,
    ) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    // Request/response lines are tiny; Nagle + delayed ACK
                    // would add tens of ms to every round trip.
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let target = *dealt % self.mailboxes.len();
                    *dealt += 1;
                    if target == self.id {
                        register(stream, reactor, conns, next_token);
                    } else {
                        self.mailboxes[target].adopt(stream);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    /// Register the connections loop 0 dealt to this loop.
    fn adopt_accepted(
        &self,
        reactor: &Reactor,
        conns: &mut HashMap<u64, Conn>,
        next_token: &mut u64,
    ) {
        let accepted =
            std::mem::take(&mut *self.mailboxes[self.id].accepted.lock().expect("accepted"));
        for stream in accepted {
            register(stream, reactor, conns, next_token);
        }
    }

    /// Hand `conn` its next pending lines in order: answer memory-resident
    /// hits in place ([`answer_hit`]) and send the first line that needs a
    /// worker to the pool, where it stays the connection's one job in
    /// flight.
    fn dispatch(&mut self, conn: &mut Conn, token: u64) {
        while !conn.in_flight && !conn.closing {
            let Some(line) = conn.pending.pop_front() else {
                return;
            };
            let request = RequestKind::parse(&line);
            if let Ok(RequestKind::Search(req)) = &request {
                self.scratch.clear();
                if answer_hit(req, self.shared, &mut self.scratch) {
                    self.scratch.push('\n');
                    conn.out.extend_from_slice(self.scratch.as_bytes());
                    conn.last_activity = Instant::now();
                    continue;
                }
            }
            conn.in_flight = true;
            // A send can only fail if all workers died; the conn is then
            // torn down by the idle sweep once nothing completes.
            let _ = self.tx.send(Job {
                token,
                origin: self.id,
                request,
            });
        }
    }

    /// Dispatch, flush what that answered, and re-register the fd;
    /// `false` means close the connection.
    fn advance(&mut self, conn: &mut Conn, token: u64, reactor: &Reactor) -> bool {
        self.dispatch(conn, token);
        conn.flush() && settle(conn, token, reactor)
    }
}

/// Register one accepted connection read-only under a fresh token.
fn register(
    stream: TcpStream,
    reactor: &Reactor,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) {
    let token = *next_token;
    *next_token += 1;
    if reactor
        .register(stream.as_raw_fd(), token, Interest::READ)
        .is_ok()
    {
        conns.insert(token, Conn::new(stream));
    }
}

/// Post-I/O bookkeeping: close finished connections, and re-register the
/// fd for exactly the events that can make progress (write interest only
/// while `out` has bytes; read interest only until EOF — both are
/// level-triggered, so a stale interest would spin the loop).
fn settle(conn: &mut Conn, token: u64, reactor: &Reactor) -> bool {
    if conn.is_idle() && (conn.closing || conn.read_closed) {
        return false; // drained: nothing pending, nothing to flush
    }
    let want = Interest {
        readable: !conn.read_closed,
        writable: !conn.out.is_empty(),
    };
    let fd = conn.stream.as_raw_fd();
    match (conn.registered, want.readable || want.writable) {
        (Some(cur), true) if cur != want => {
            if reactor.modify(fd, token, want).is_err() {
                return false;
            }
            conn.registered = Some(want);
        }
        (Some(_), false) => {
            // Read side closed, response still being computed: nothing to
            // wait for until the completion queue delivers it.
            let _ = reactor.deregister(fd);
            conn.registered = None;
        }
        (None, true) => {
            if reactor.register(fd, token, want).is_err() {
                return false;
            }
            conn.registered = Some(want);
        }
        _ => {}
    }
    true
}

/// Deregister and drop one connection (dropping the stream closes the
/// fd).
fn close_conn(reactor: &Reactor, conns: &mut HashMap<u64, Conn>, token: u64) {
    if let Some(conn) = conns.remove(&token) {
        if conn.registered.is_some() {
            let _ = reactor.deregister(conn.stream.as_raw_fd());
        }
    }
}
