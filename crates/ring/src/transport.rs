//! Message transports: in-memory channels, a single-thread FIFO and TCP
//! loopback.
//!
//! The protocol only ever sends node-to-successor, but the substrate is a
//! general mailbox network (any node can frame a message to any other);
//! this is what makes per-round ring remapping (Section 4.3) and ring
//! reconstruction after failure possible without re-wiring connections.

use std::collections::{HashMap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use privtopk_domain::NodeId;
use privtopk_observe::{Ctx, Laps, Phase};

use crate::wire::{encode_to_bytes, WireEncode};
use crate::{RingError, TransportMetrics};

/// A node's connection to the network: send a frame to any peer, receive
/// frames addressed to this node.
///
/// `recv` blocks until a frame arrives; `recv_timeout` bounds the wait.
pub trait Transport: Send {
    /// The node this endpoint belongs to.
    fn node(&self) -> NodeId;

    /// Sends `frame` to `to`.
    ///
    /// # Errors
    ///
    /// Returns [`RingError::UnknownNode`] for peers outside the network and
    /// [`RingError::Disconnected`] / [`RingError::Io`] on channel failure.
    fn send(&mut self, to: NodeId, frame: Bytes) -> Result<(), RingError>;

    /// Sends one physical frame carrying `logical` piggybacked messages.
    ///
    /// Identical to [`Transport::send`] on the wire; the distinction only
    /// affects [`TransportMetrics`], which counts one frame but `logical`
    /// messages. Batched drivers use this so the per-query cost model
    /// stays comparable with unbatched runs.
    ///
    /// # Errors
    ///
    /// Same as [`Transport::send`].
    fn send_many(&mut self, to: NodeId, frame: Bytes, logical: u64) -> Result<(), RingError> {
        let _ = logical;
        self.send(to, frame)
    }

    /// Blocks until a frame arrives; returns the sender and payload.
    ///
    /// # Errors
    ///
    /// Returns [`RingError::Disconnected`] if the network shut down.
    fn recv(&mut self) -> Result<(NodeId, Bytes), RingError>;

    /// Like [`Transport::recv`] but gives up after `timeout`.
    ///
    /// # Errors
    ///
    /// Returns [`RingError::Timeout`] on expiry.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<(NodeId, Bytes), RingError>;

    /// A handle that ends this endpoint's blocked receive from any
    /// thread; see [`Waker`].
    fn waker(&self) -> Waker;

    /// Opts into push delivery: from now on, every thread that reads one
    /// of this endpoint's connections hands each peer frame it reads to
    /// `sink`, on that thread, instead of queuing the frame for
    /// [`recv`](Self::recv). Wakes, and frames queued before the call,
    /// still wait in the inbox, and the returned receiver reads them.
    ///
    /// Returns `None`, and never calls `sink`, on an endpoint with no
    /// reader threads of its own; only [`TcpEndpoint`] has them.
    fn push_frames(&mut self, sink: FrameSink) -> Option<Receiver<(NodeId, Bytes)>> {
        let _ = sink;
        None
    }
}

/// Where a push-mode endpoint's readers hand peer frames
/// ([`Transport::push_frames`]): called with the sender and payload on
/// the reader's own thread, in the order its connection delivered them.
pub type FrameSink = Arc<dyn Fn(NodeId, Bytes) + Send + Sync>;

/// Wakes one endpoint from any thread, in the self-pipe pattern:
/// [`wake`](Waker::wake) queues an empty frame "from" the endpoint's own
/// node straight into that endpoint's inbox. No ring node ever sends
/// itself a frame, so a receiver reads a frame from its own node as a
/// wake. The wake never touches a socket, and [`TransportMetrics`] does
/// not count it.
#[derive(Debug, Clone)]
pub struct Waker {
    node: NodeId,
    inbox: Sender<(NodeId, Bytes)>,
}

impl Waker {
    /// Queues the wake; waking an endpoint that is gone does nothing.
    pub fn wake(&self) {
        let _ = self.inbox.send((self.node, Bytes::new()));
    }
}

/// Encodes `value` into a fresh buffer ([`encode_to_bytes`]) and sends it
/// to `to` as one frame carrying `logical` piggybacked messages (1 for an
/// unbatched hop).
///
/// The wire encode and the transport hand-off are the hop's next two
/// laps, [`Phase::Encode`] and [`Phase::Send`] under `ctx`: two clock
/// reads, or three if no span of the hop has started yet. A hop the
/// recorder does not time costs three branches and no clock read; the
/// caller files the laps when its hop ends.
///
/// # Errors
///
/// Propagates transport errors.
pub fn send_value<T: WireEncode>(
    transport: &mut dyn Transport,
    to: NodeId,
    value: &T,
    logical: u64,
    laps: &mut Laps,
    ctx: Ctx,
) -> Result<(), RingError> {
    laps.start();
    let frame = encode_to_bytes(value);
    laps.lap(Phase::Encode, ctx);
    let result = transport.send_many(to, frame, logical);
    laps.lap(Phase::Send, ctx);
    result
}

// ---------------------------------------------------------------------------
// In-memory network
// ---------------------------------------------------------------------------

/// A zero-copy in-process network of `n` mailboxes built on crossbeam
/// channels, for one thread per node: a receive blocks until a peer's
/// frame arrives. The lossy and chaos networks are built on it; a ring
/// that one thread drives uses a [`FifoNetwork`] instead.
///
/// # Example
///
/// ```
/// use privtopk_ring::transport::{InMemoryNetwork, Transport};
/// use privtopk_domain::NodeId;
/// use bytes::Bytes;
///
/// let net = InMemoryNetwork::new(2);
/// let mut eps = net.endpoints();
/// eps[1].send(NodeId::new(0), Bytes::from_static(b"hi"))?;
/// let (from, frame) = eps[0].recv()?;
/// assert_eq!((from, &frame[..]), (NodeId::new(1), &b"hi"[..]));
/// # Ok::<(), privtopk_ring::RingError>(())
/// ```
#[derive(Debug)]
pub struct InMemoryNetwork {
    senders: Vec<Sender<(NodeId, Bytes)>>,
    receivers: Vec<Receiver<(NodeId, Bytes)>>,
    metrics: TransportMetrics,
}

impl InMemoryNetwork {
    /// Creates a network of `n` nodes with ids `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "network needs at least one node");
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        InMemoryNetwork {
            senders,
            receivers,
            metrics: TransportMetrics::new(),
        }
    }

    /// Shared transport metrics for the whole network.
    #[must_use]
    pub fn metrics(&self) -> TransportMetrics {
        self.metrics.clone()
    }

    /// Consumes the network and hands out one endpoint per node.
    #[must_use]
    pub fn endpoints(self) -> Vec<InMemoryEndpoint> {
        let senders = Arc::new(self.senders);
        self.receivers
            .into_iter()
            .enumerate()
            .map(|(i, rx)| InMemoryEndpoint {
                node: NodeId::new(i),
                senders: Arc::clone(&senders),
                inbox: rx,
                metrics: self.metrics.clone(),
            })
            .collect()
    }
}

/// One node's endpoint on an [`InMemoryNetwork`].
pub struct InMemoryEndpoint {
    node: NodeId,
    senders: Arc<Vec<Sender<(NodeId, Bytes)>>>,
    inbox: Receiver<(NodeId, Bytes)>,
    metrics: TransportMetrics,
}

impl std::fmt::Debug for InMemoryEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InMemoryEndpoint")
            .field("node", &self.node)
            .field("peers", &self.senders.len())
            .finish()
    }
}

impl Transport for InMemoryEndpoint {
    fn node(&self) -> NodeId {
        self.node
    }

    fn send(&mut self, to: NodeId, frame: Bytes) -> Result<(), RingError> {
        self.send_many(to, frame, 1)
    }

    fn send_many(&mut self, to: NodeId, frame: Bytes, logical: u64) -> Result<(), RingError> {
        let sender = self
            .senders
            .get(to.get())
            .ok_or(RingError::UnknownNode { node: to })?;
        self.metrics.record_frame(frame.len(), logical);
        sender
            .send((self.node, frame))
            .map_err(|_| RingError::Disconnected)
    }

    fn recv(&mut self) -> Result<(NodeId, Bytes), RingError> {
        self.inbox.recv().map_err(|_| RingError::Disconnected)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<(NodeId, Bytes), RingError> {
        self.inbox.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => RingError::Timeout,
            RecvTimeoutError::Disconnected => RingError::Disconnected,
        })
    }

    fn waker(&self) -> Waker {
        Waker {
            node: self.node,
            inbox: self.senders[self.node.get()].clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// Single-thread FIFO network
// ---------------------------------------------------------------------------

/// One frame queued on a [`FifoNetwork`]: receiver, sender, payload.
pub type QueuedFrame = (NodeId, NodeId, Bytes);

/// The one queue every endpoint of a [`FifoNetwork`] sends into; the
/// thread driving the ring takes frames off its head with
/// [`pop`](FrameQueue::pop).
#[derive(Debug, Clone, Default)]
pub struct FrameQueue(Arc<Mutex<VecDeque<QueuedFrame>>>);

impl FrameQueue {
    /// Takes the oldest queued frame, if any.
    #[must_use]
    pub fn pop(&self) -> Option<QueuedFrame> {
        self.0.lock().pop_front()
    }
}

/// An in-process network of `n` nodes for a ring that one thread drives:
/// a send on any endpoint appends `(to, from, frame)` to one shared
/// [`FrameQueue`], and the thread driving the ring delivers frames in the
/// order they were sent. Nothing ever blocks, so no frame changes threads.
///
/// # Example
///
/// ```
/// use privtopk_ring::transport::{FifoNetwork, Transport};
/// use privtopk_domain::NodeId;
/// use bytes::Bytes;
///
/// let net = FifoNetwork::new(2);
/// let queue = net.queue();
/// let mut eps = net.endpoints();
/// eps[1].send(NodeId::new(0), Bytes::from_static(b"hi"))?;
/// let (to, from, frame) = queue.pop().expect("one frame queued");
/// assert_eq!((to, from, &frame[..]), (NodeId::new(0), NodeId::new(1), &b"hi"[..]));
/// assert!(queue.pop().is_none());
/// # Ok::<(), privtopk_ring::RingError>(())
/// ```
#[derive(Debug)]
pub struct FifoNetwork {
    n: usize,
    queue: FrameQueue,
    metrics: TransportMetrics,
}

impl FifoNetwork {
    /// Creates a network of `n` nodes with ids `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "network needs at least one node");
        FifoNetwork {
            n,
            queue: FrameQueue::default(),
            metrics: TransportMetrics::new(),
        }
    }

    /// Shared transport metrics for the whole network.
    #[must_use]
    pub fn metrics(&self) -> TransportMetrics {
        self.metrics.clone()
    }

    /// The queue the driving thread takes frames from.
    #[must_use]
    pub fn queue(&self) -> FrameQueue {
        self.queue.clone()
    }

    /// Consumes the network and hands out one endpoint per node.
    #[must_use]
    pub fn endpoints(self) -> Vec<FifoEndpoint> {
        (0..self.n)
            .map(|i| FifoEndpoint {
                node: NodeId::new(i),
                n: self.n,
                queue: self.queue.clone(),
                metrics: self.metrics.clone(),
            })
            .collect()
    }
}

/// One node's endpoint on a [`FifoNetwork`].
///
/// A receive takes the oldest queued frame addressed to this node and
/// never waits: only the thread asking could queue another, so with none
/// queued it is [`RingError::Timeout`] at once. Its [`Waker`] does
/// nothing, since no receive ever blocks.
#[derive(Debug)]
pub struct FifoEndpoint {
    node: NodeId,
    n: usize,
    queue: FrameQueue,
    metrics: TransportMetrics,
}

impl Transport for FifoEndpoint {
    fn node(&self) -> NodeId {
        self.node
    }

    fn send(&mut self, to: NodeId, frame: Bytes) -> Result<(), RingError> {
        self.send_many(to, frame, 1)
    }

    fn send_many(&mut self, to: NodeId, frame: Bytes, logical: u64) -> Result<(), RingError> {
        if to.get() >= self.n {
            return Err(RingError::UnknownNode { node: to });
        }
        self.metrics.record_frame(frame.len(), logical);
        self.queue.0.lock().push_back((to, self.node, frame));
        Ok(())
    }

    fn recv(&mut self) -> Result<(NodeId, Bytes), RingError> {
        self.recv_timeout(Duration::ZERO)
    }

    fn recv_timeout(&mut self, _timeout: Duration) -> Result<(NodeId, Bytes), RingError> {
        let mut queue = self.queue.0.lock();
        queue
            .iter()
            .position(|(to, _, _)| *to == self.node)
            .and_then(|at| queue.remove(at))
            .map(|(_, from, frame)| (from, frame))
            .ok_or(RingError::Timeout)
    }

    fn waker(&self) -> Waker {
        // The receiving half drops here, so a wake goes nowhere.
        Waker {
            node: self.node,
            inbox: unbounded().0,
        }
    }
}

// ---------------------------------------------------------------------------
// TCP loopback network
// ---------------------------------------------------------------------------

/// Wire-level frame header: sender id (u64 LE) + payload length (u32 LE).
const FRAME_HEADER_LEN: usize = 12;
/// Upper bound on a single frame payload (16 MiB) — rejects nonsense
/// lengths before allocation.
const MAX_FRAME_LEN: usize = 16 << 20;
/// Most payload bytes [`read_frame`] allocates ahead of the bytes that
/// have actually arrived; frames up to this size take a single read.
const READ_STEP: usize = 64 << 10;

fn write_frame<W: Write>(stream: &mut W, from: NodeId, payload: &[u8]) -> Result<(), RingError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[..8].copy_from_slice(&(from.get() as u64).to_le_bytes());
    header[8..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    // Vectored write: header and payload go out in one syscall on the
    // common path instead of two write_all calls (which also risk an
    // extra small packet for the header under TCP_NODELAY-less stacks).
    let total = FRAME_HEADER_LEN + payload.len();
    let mut written = 0usize;
    while written < total {
        let n = if written < FRAME_HEADER_LEN {
            let bufs = [IoSlice::new(&header[written..]), IoSlice::new(payload)];
            stream.write_vectored(&bufs)?
        } else {
            stream.write(&payload[written - FRAME_HEADER_LEN..])?
        };
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "tcp stream accepted no bytes",
            )
            .into());
        }
        written += n;
    }
    stream.flush()?;
    Ok(())
}

/// Reads one frame written by [`write_frame`].
///
/// The length prefix comes from the peer, so it is not trusted with an
/// allocation: the payload buffer grows by at most [`READ_STEP`] bytes at
/// a time, each step only after the previous one was filled. A peer that
/// claims 16 MiB and then stops costs at most 64 KiB, not 16 MiB.
fn read_frame<R: Read>(stream: &mut R) -> Result<(NodeId, Bytes), RingError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    stream.read_exact(&mut header)?;
    let from = u64::from_le_bytes(header[..8].try_into().expect("8 bytes")) as usize;
    let len = u32::from_le_bytes(header[8..].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_LEN {
        return Err(RingError::Decode {
            reason: "frame exceeds maximum length",
        });
    }
    let mut payload = BytesMut::new();
    while payload.len() < len {
        let filled = payload.len();
        payload.resize(filled + (len - filled).min(READ_STEP), 0);
        stream.read_exact(&mut payload[filled..])?;
    }
    Ok((NodeId::new(from), payload.freeze()))
}

/// A real TCP network on loopback: every node runs a listener; outgoing
/// connections are established lazily and cached.
///
/// This exists to demonstrate (and benchmark) the protocol over an actual
/// socket stack; simulations use [`InMemoryNetwork`].
#[derive(Debug)]
pub struct TcpNetwork {
    addrs: Vec<SocketAddr>,
    listeners: Vec<TcpListener>,
    metrics: TransportMetrics,
}

impl TcpNetwork {
    /// Binds `n` listeners on ephemeral loopback ports.
    ///
    /// # Errors
    ///
    /// Returns [`RingError::Io`] if binding fails.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn bind(n: usize) -> Result<Self, RingError> {
        assert!(n > 0, "network needs at least one node");
        let mut addrs = Vec::with_capacity(n);
        let mut listeners = Vec::with_capacity(n);
        for _ in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addrs.push(listener.local_addr()?);
            listeners.push(listener);
        }
        Ok(TcpNetwork {
            addrs,
            listeners,
            metrics: TransportMetrics::new(),
        })
    }

    /// Shared transport metrics for the whole network.
    #[must_use]
    pub fn metrics(&self) -> TransportMetrics {
        self.metrics.clone()
    }

    /// Consumes the network and hands out one endpoint per node.
    ///
    /// # Errors
    ///
    /// Returns [`RingError::Io`] if acceptor threads cannot be set up.
    pub fn endpoints(self) -> Result<Vec<TcpEndpoint>, RingError> {
        let addrs = Arc::new(self.addrs);
        let mut out = Vec::with_capacity(self.listeners.len());
        for (i, listener) in self.listeners.into_iter().enumerate() {
            let node = NodeId::new(i);
            let (tx, rx) = unbounded();
            let readers = Arc::new(Readers::default());
            let waker = Waker {
                node,
                inbox: tx.clone(),
            };
            spawn_acceptor(listener, node, tx, Arc::clone(&readers));
            out.push(TcpEndpoint {
                node,
                addrs: Arc::clone(&addrs),
                my_addr: addrs[i],
                outgoing: Mutex::new(HashMap::new()),
                inbox: rx,
                waker,
                readers,
                metrics: self.metrics.clone(),
            });
        }
        Ok(out)
    }
}

/// What a [`TcpEndpoint`] shares with its acceptor and reader threads.
#[derive(Default)]
struct Readers {
    /// Set when the endpoint drops; the acceptor exits on its next accept.
    shutdown: AtomicBool,
    /// The push hook, once installed ([`Transport::push_frames`]).
    sink: OnceLock<FrameSink>,
}

/// Accepts connections and starts one reader thread per connection, which
/// runs until EOF or an error. A reader queues each frame in the inbox
/// until the endpoint installs a sink, and from then on calls the sink
/// with it, on the reader's thread. A frame naming the endpoint's own
/// node reads as a wake ([`Waker`]), so it always goes to the inbox.
///
/// Once the endpoint has dropped, the next connection accepted is its
/// wake (see its `Drop`): the acceptor answers it with one byte, waits
/// up to 1 s for the reset that the byte causes, and exits.
fn spawn_acceptor(
    listener: TcpListener,
    me: NodeId,
    inbox: Sender<(NodeId, Bytes)>,
    readers: Arc<Readers>,
) {
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            if readers.shutdown.load(Ordering::SeqCst) {
                if let Ok(mut wake) = stream {
                    let _ = wake.write_all(&[0]);
                    let _ = wake.set_read_timeout(Some(Duration::from_secs(1)));
                    let _ = wake.read(&mut [0]);
                }
                break;
            }
            let Ok(mut stream) = stream else { continue };
            let (inbox, readers) = (inbox.clone(), Arc::clone(&readers));
            std::thread::spawn(move || {
                while let Ok((from, frame)) = read_frame(&mut stream) {
                    match readers.sink.get() {
                        Some(sink) if from != me => sink(from, frame),
                        _ => {
                            if inbox.send((from, frame)).is_err() {
                                break;
                            }
                        }
                    }
                }
            });
        }
    });
}

/// One node's endpoint on a [`TcpNetwork`].
pub struct TcpEndpoint {
    node: NodeId,
    addrs: Arc<Vec<SocketAddr>>,
    my_addr: SocketAddr,
    outgoing: Mutex<HashMap<NodeId, TcpStream>>,
    inbox: Receiver<(NodeId, Bytes)>,
    waker: Waker,
    readers: Arc<Readers>,
    metrics: TransportMetrics,
}

impl std::fmt::Debug for TcpEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpEndpoint")
            .field("node", &self.node)
            .field("addr", &self.my_addr)
            .finish()
    }
}

impl Transport for TcpEndpoint {
    fn node(&self) -> NodeId {
        self.node
    }

    fn send(&mut self, to: NodeId, frame: Bytes) -> Result<(), RingError> {
        self.send_many(to, frame, 1)
    }

    fn send_many(&mut self, to: NodeId, frame: Bytes, logical: u64) -> Result<(), RingError> {
        let addr = *self
            .addrs
            .get(to.get())
            .ok_or(RingError::UnknownNode { node: to })?;
        let mut outgoing = self.outgoing.lock();
        if let std::collections::hash_map::Entry::Vacant(e) = outgoing.entry(to) {
            e.insert(TcpStream::connect(addr)?);
        }
        let stream = outgoing.get_mut(&to).expect("just inserted");
        self.metrics.record_frame(frame.len(), logical);
        let result = write_frame(stream, self.node, &frame);
        if result.is_err() {
            // Connection may have gone stale; drop it so the next send
            // reconnects.
            outgoing.remove(&to);
        }
        result
    }

    fn recv(&mut self) -> Result<(NodeId, Bytes), RingError> {
        self.inbox.recv().map_err(|_| RingError::Disconnected)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<(NodeId, Bytes), RingError> {
        self.inbox.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => RingError::Timeout,
            RecvTimeoutError::Disconnected => RingError::Disconnected,
        })
    }

    fn waker(&self) -> Waker {
        self.waker.clone()
    }

    fn push_frames(&mut self, sink: FrameSink) -> Option<Receiver<(NodeId, Bytes)>> {
        self.readers.sink.set(sink).ok()?;
        Some(self.inbox.clone())
    }
}

impl Drop for TcpEndpoint {
    /// Wakes the acceptor, by connecting to the endpoint's own listener,
    /// so it sees the shutdown flag and exits. Whichever side closes a
    /// connection first keeps it in TIME_WAIT for a minute: here that
    /// ties up an ephemeral port, and on the acceptor's side it keeps the
    /// listener's port bound, which Linux's `connect` then skips. So this
    /// waits (up to 1 s) for the acceptor's byte and closes with it
    /// unread, which resets the connection, and neither side keeps one.
    fn drop(&mut self) {
        self.readers.shutdown.store(true, Ordering::SeqCst);
        if let Ok(wake) = TcpStream::connect(self.my_addr) {
            let _ = wake.set_read_timeout(Some(Duration::from_secs(1)));
            let _ = wake.peek(&mut [0]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_from_bytes, WireDecode};
    use privtopk_observe::Recorder;

    /// A frame holding one little-endian `u64`: 8 bytes on the wire.
    struct U64Frame(u64);

    impl WireEncode for U64Frame {
        fn encode(&self, buf: &mut BytesMut) {
            buf.extend_from_slice(&self.0.to_le_bytes());
        }
    }

    impl WireDecode for U64Frame {
        fn decode(buf: &mut &[u8]) -> Result<Self, RingError> {
            let (head, rest) = buf.split_first_chunk().ok_or(RingError::Decode {
                reason: "unexpected end of frame",
            })?;
            *buf = rest;
            Ok(U64Frame(u64::from_le_bytes(*head)))
        }
    }

    /// Sends `value` as one untraced unbatched frame.
    fn send_u64(ep: &mut dyn Transport, to: usize, value: u64) {
        send_value(
            ep,
            NodeId::new(to),
            &U64Frame(value),
            1,
            &mut Laps::default(),
            Ctx::default(),
        )
        .unwrap();
    }

    /// Receives and decodes one `u64` frame.
    fn recv_u64(ep: &mut dyn Transport) -> (NodeId, u64) {
        let (from, frame) = ep.recv_timeout(Duration::from_secs(5)).unwrap();
        let U64Frame(value) = decode_from_bytes(&frame).unwrap();
        (from, value)
    }

    #[test]
    fn in_memory_point_to_point() {
        let net = InMemoryNetwork::new(3);
        let mut eps = net.endpoints();
        eps[0]
            .send(NodeId::new(2), Bytes::from_static(b"abc"))
            .unwrap();
        let (from, frame) = eps[2].recv().unwrap();
        assert_eq!(from, NodeId::new(0));
        assert_eq!(&frame[..], b"abc");
    }

    #[test]
    fn in_memory_unknown_peer_rejected() {
        let net = InMemoryNetwork::new(2);
        let mut eps = net.endpoints();
        assert!(matches!(
            eps[0].send(NodeId::new(7), Bytes::new()),
            Err(RingError::UnknownNode { .. })
        ));
    }

    #[test]
    fn in_memory_timeout_fires() {
        let net = InMemoryNetwork::new(2);
        let mut eps = net.endpoints();
        assert!(matches!(
            eps[0].recv_timeout(Duration::from_millis(20)),
            Err(RingError::Timeout)
        ));
    }

    #[test]
    fn in_memory_fifo_per_sender() {
        let net = InMemoryNetwork::new(2);
        let mut eps = net.endpoints();
        for i in 0..10u8 {
            eps[0].send(NodeId::new(1), Bytes::from(vec![i])).unwrap();
        }
        for i in 0..10u8 {
            let (_, frame) = eps[1].recv().unwrap();
            assert_eq!(frame[0], i);
        }
    }

    #[test]
    fn in_memory_metrics_count_frames() {
        let net = InMemoryNetwork::new(2);
        let metrics = net.metrics();
        let mut eps = net.endpoints();
        eps[0]
            .send(NodeId::new(1), Bytes::from_static(b"12345"))
            .unwrap();
        assert_eq!(metrics.peek().logical_messages, 1);
        assert_eq!(metrics.peek().bytes_sent, 5);
    }

    #[test]
    fn typed_send_recv_helpers() {
        let net = InMemoryNetwork::new(2);
        let mut eps = net.endpoints();
        send_u64(&mut eps[0], 1, 12345);
        assert_eq!(recv_u64(&mut eps[1]), (NodeId::new(0), 12345));
    }

    #[test]
    fn tcp_point_to_point() {
        let net = TcpNetwork::bind(2).unwrap();
        let mut eps = net.endpoints().unwrap();
        eps[0]
            .send(NodeId::new(1), Bytes::from_static(b"over tcp"))
            .unwrap();
        let (from, frame) = eps[1].recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, NodeId::new(0));
        assert_eq!(&frame[..], b"over tcp");
    }

    #[test]
    fn tcp_ring_circulation() {
        // Pass a token around a 4-node TCP ring twice.
        let n = 4;
        let net = TcpNetwork::bind(n).unwrap();
        let eps = net.endpoints().unwrap();
        let handles: Vec<_> = eps
            .into_iter()
            .enumerate()
            .map(|(i, mut ep)| {
                std::thread::spawn(move || {
                    let next = NodeId::new((i + 1) % n);
                    if i == 0 {
                        ep.send(next, Bytes::from(vec![0u8])).unwrap();
                    }
                    let mut hops;
                    loop {
                        let (_, frame) = ep.recv_timeout(Duration::from_secs(10)).unwrap();
                        hops = frame[0] + 1;
                        if hops >= 2 * n as u8 {
                            break hops;
                        }
                        ep.send(next, Bytes::from(vec![hops])).unwrap();
                    }
                })
            })
            .collect();
        // Only the node that sees hop count reach 2n exits the loop with it;
        // the rest would block forever, so just join the last one... instead
        // all threads break when they observe >= 2n. The token stops at the
        // node that hits the bound; other threads stay blocked, so detach
        // them and only assert on the terminating node.
        let mut finished = 0;
        for h in handles {
            // The terminating node joins promptly; others would block, so
            // poll with is_finished.
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while !h.is_finished() && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            if h.is_finished() {
                let hops = h.join().unwrap();
                assert_eq!(hops, 2 * n as u8);
                finished += 1;
                break;
            }
        }
        assert_eq!(finished, 1, "exactly one node should observe the final hop");
    }

    #[test]
    fn tcp_unknown_peer_rejected() {
        let net = TcpNetwork::bind(1).unwrap();
        let mut eps = net.endpoints().unwrap();
        assert!(matches!(
            eps[0].send(NodeId::new(5), Bytes::new()),
            Err(RingError::UnknownNode { .. })
        ));
    }

    #[test]
    fn tcp_large_frame_roundtrips() {
        let net = TcpNetwork::bind(2).unwrap();
        let mut eps = net.endpoints().unwrap();
        let big = Bytes::from(vec![0xAB; 1 << 16]);
        eps[0].send(NodeId::new(1), big.clone()).unwrap();
        let (_, frame) = eps[1].recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(frame, big);
    }

    #[test]
    fn a_wake_is_an_uncounted_empty_frame_from_the_endpoint_itself() {
        fn check(mut ep: impl Transport, metrics: &TransportMetrics) {
            ep.waker().wake();
            let (from, frame) = ep.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(from, ep.node());
            assert!(frame.is_empty());
            assert_eq!(metrics.peek().frames_sent, 0);
        }
        let net = InMemoryNetwork::new(2);
        let metrics = net.metrics();
        check(net.endpoints().pop().unwrap(), &metrics);
        let net = TcpNetwork::bind(2).unwrap();
        let metrics = net.metrics();
        check(net.endpoints().unwrap().pop().unwrap(), &metrics);
    }

    #[test]
    fn a_pushing_endpoint_hands_peer_frames_to_its_sink_and_wakes_to_its_inbox() {
        let mut eps = TcpNetwork::bind(2).unwrap().endpoints().unwrap();
        let (tx, pushed) = unbounded();
        let sink: FrameSink = Arc::new(move |from, frame| {
            let _ = tx.send((from, frame, std::thread::current().id()));
        });
        let inbox = eps[1].push_frames(sink).expect("a TCP endpoint pushes");
        assert!(eps[1].push_frames(Arc::new(|_, _| {})).is_none());
        eps[0]
            .send(NodeId::new(1), Bytes::from_static(b"pushed"))
            .unwrap();
        let (from, frame, reader) = pushed.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((from, &frame[..]), (NodeId::new(0), &b"pushed"[..]));
        assert_ne!(reader, std::thread::current().id());
        // A wake, and a peer frame naming the endpoint's own node, still
        // reach the inbox, in order.
        eps[1].waker().wake();
        let mut spoofer = TcpStream::connect(eps[1].my_addr).unwrap();
        write_frame(&mut spoofer, NodeId::new(1), b"spoofed").unwrap();
        for expected in [&b""[..], b"spoofed"] {
            let (from, frame) = inbox.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!((from, &frame[..]), (NodeId::new(1), expected));
        }
        assert!(pushed.try_recv().is_err());
        // An endpoint with no reader threads declines the hook.
        let mut memory = InMemoryNetwork::new(1).endpoints().pop().unwrap();
        assert!(memory.push_frames(Arc::new(|_, _| {})).is_none());
    }

    /// The `(local, remote)` port pairs of this host's IPv4 TIME_WAIT
    /// sockets. Columns of `/proc/net/tcp`: slot, local address, remote
    /// address, state (06 is TIME_WAIT); addresses are hex `ip:port`.
    #[cfg(target_os = "linux")]
    fn time_waits() -> std::collections::HashSet<(u16, u16)> {
        let port = |address: &str| {
            let hex = address.rsplit(':').next().unwrap();
            u16::from_str_radix(hex, 16).unwrap()
        };
        let table = std::fs::read_to_string("/proc/net/tcp").unwrap();
        table
            .lines()
            .skip(1)
            .map(|line| line.split_whitespace().collect::<Vec<_>>())
            .filter(|fields| fields[3] == "06")
            .map(|fields| (port(fields[1]), port(fields[2])))
            .collect()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn dropped_rings_leave_no_time_wait_toward_their_listeners() {
        // Each endpoint's drop wakes its acceptor through a connection to
        // its own listener, which must end in a reset: no new TIME_WAIT
        // may name a listener's port, on the connecting side (remote) or
        // the accepting one (local). A listener can reuse a port that a
        // TIME_WAIT from before the test names, so those are set aside.
        let nets: Vec<TcpNetwork> = (0..20).map(|_| TcpNetwork::bind(3).unwrap()).collect();
        let listeners: std::collections::HashSet<u16> = nets
            .iter()
            .flat_map(|net| net.addrs.iter().map(SocketAddr::port))
            .collect();
        let before = time_waits();
        for net in nets {
            drop(net.endpoints().unwrap());
        }
        let left: Vec<(u16, u16)> = time_waits()
            .difference(&before)
            .filter(|(local, remote)| listeners.contains(local) || listeners.contains(remote))
            .copied()
            .collect();
        assert!(
            left.is_empty(),
            "{} wake connections left TIME_WAIT: {left:?}",
            left.len()
        );
    }

    #[test]
    fn send_many_counts_one_frame_many_messages() {
        let net = InMemoryNetwork::new(2);
        let metrics = net.metrics();
        let mut eps = net.endpoints();
        eps[0]
            .send_many(NodeId::new(1), Bytes::from_static(b"batched!"), 8)
            .unwrap();
        assert_eq!(metrics.peek().frames_sent, 1);
        assert_eq!(metrics.peek().logical_messages, 8);
        assert_eq!(metrics.peek().bytes_sent, 8);
        let (_, frame) = eps[1].recv().unwrap();
        assert_eq!(&frame[..], b"batched!");
    }

    #[test]
    fn send_value_counts_logical_messages_and_traces_phases() {
        let net = InMemoryNetwork::new(2);
        let metrics = net.metrics();
        let mut eps = net.endpoints();
        let recorder = Recorder::stats_only();
        send_u64(&mut eps[0], 1, 41);
        let mut laps = Laps::default();
        recorder.begin_hop(&mut laps);
        send_value(
            &mut eps[0],
            NodeId::new(1),
            &U64Frame(42),
            3,
            &mut laps,
            Ctx::default(),
        )
        .unwrap();
        recorder.file_hop(&mut laps);
        assert_eq!(recv_u64(&mut eps[1]).1, 41);
        assert_eq!(recv_u64(&mut eps[1]).1, 42);
        assert_eq!(metrics.peek().frames_sent, 2);
        assert_eq!(metrics.peek().logical_messages, 4);
        assert_eq!(metrics.peek().bytes_sent, 16);
        // Only the traced send was timed.
        assert_eq!(recorder.phase(Phase::Encode).count, 1);
        assert_eq!(recorder.phase(Phase::Send).count, 1);
    }

    #[test]
    fn fifo_delivers_every_endpoints_frames_in_send_order() {
        let net = FifoNetwork::new(3);
        let (queue, metrics) = (net.queue(), net.metrics());
        let mut eps = net.endpoints();
        eps[0]
            .send(NodeId::new(1), Bytes::from_static(b"a"))
            .unwrap();
        eps[2]
            .send_many(NodeId::new(0), Bytes::from_static(b"bc"), 4)
            .unwrap();
        eps[1]
            .send(NodeId::new(2), Bytes::from_static(b"d"))
            .unwrap();
        assert!(matches!(
            eps[1].send(NodeId::new(3), Bytes::new()),
            Err(RingError::UnknownNode { .. })
        ));
        assert_eq!(metrics.peek().frames_sent, 3);
        assert_eq!(metrics.peek().logical_messages, 6);
        assert_eq!(metrics.peek().bytes_sent, 4);
        // A receive takes the oldest frame for its own node and never
        // waits for one.
        assert_eq!(
            eps[0].recv().unwrap(),
            (NodeId::new(2), Bytes::from_static(b"bc"))
        );
        assert!(matches!(
            eps[0].recv_timeout(Duration::from_secs(5)),
            Err(RingError::Timeout)
        ));
        let order: Vec<QueuedFrame> = std::iter::from_fn(|| queue.pop()).collect();
        assert_eq!(
            order,
            [
                (NodeId::new(1), NodeId::new(0), Bytes::from_static(b"a")),
                (NodeId::new(2), NodeId::new(1), Bytes::from_static(b"d")),
            ]
        );
        // A wake goes nowhere and counts nothing.
        eps[2].waker().wake();
        assert!(queue.pop().is_none());
        assert_eq!(metrics.peek().frames_sent, 3);
    }

    /// A reader that remembers the largest buffer it was asked to fill.
    struct ReadProbe<'a> {
        bytes: &'a [u8],
        largest_request: usize,
    }

    impl Read for ReadProbe<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest_request = self.largest_request.max(buf.len());
            self.bytes.read(buf)
        }
    }

    fn header(from: u64, len: u32) -> Vec<u8> {
        let mut wire = from.to_le_bytes().to_vec();
        wire.extend_from_slice(&len.to_le_bytes());
        wire
    }

    #[test]
    fn read_frame_lying_length_prefix_is_a_bounded_typed_error() {
        // The header claims the 16 MiB maximum; 10 bytes follow, then EOF.
        let mut wire = header(3, MAX_FRAME_LEN as u32);
        wire.extend_from_slice(&[0xAB; 10]);
        let mut probe = ReadProbe {
            bytes: &wire,
            largest_request: 0,
        };
        let result = read_frame(&mut probe);
        assert!(
            matches!(result, Err(RingError::Io(ref e)) if e.kind() == std::io::ErrorKind::UnexpectedEof)
        );
        // The payload buffer only ever grew by one step ahead of the data.
        assert_eq!(probe.largest_request, READ_STEP);
    }

    #[test]
    fn read_frame_rejects_oversized_and_truncated_headers() {
        let over = header(0, MAX_FRAME_LEN as u32 + 1);
        assert!(matches!(
            read_frame(&mut over.as_slice()),
            Err(RingError::Decode { .. })
        ));
        // The peer stops after 5 of the 12 header bytes.
        let cut = &header(0, 4)[..5];
        assert!(matches!(
            read_frame(&mut &cut[..]),
            Err(RingError::Io(ref e)) if e.kind() == std::io::ErrorKind::UnexpectedEof
        ));
    }

    #[test]
    fn frames_round_trip_across_read_step_boundaries() {
        for len in [0, 1, READ_STEP, READ_STEP + 1] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut wire = Vec::new();
            write_frame(&mut wire, NodeId::new(7), &payload).unwrap();
            let mut cursor = wire.as_slice();
            let (from, frame) = read_frame(&mut cursor).unwrap();
            assert_eq!(from, NodeId::new(7));
            assert_eq!(&frame[..], &payload[..], "payload of {len} bytes");
            assert!(cursor.is_empty(), "frame of {len} bytes left bytes unread");
        }
    }
}
