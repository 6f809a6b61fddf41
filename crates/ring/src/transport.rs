//! Message transports: in-memory channels and TCP loopback.
//!
//! The protocol only ever sends node-to-successor, but the substrate is a
//! general mailbox network (any node can frame a message to any other);
//! this is what makes per-round ring remapping (Section 4.3) and ring
//! reconstruction after failure possible without re-wiring connections.

use std::collections::HashMap;
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use privtopk_domain::NodeId;
use privtopk_observe::{Ctx, Phase, Recorder};

use crate::wire::{encode_into, WireEncode};
use crate::{RingError, TransportMetrics};

/// Most buffers a [`FramePool`] retains; beyond this, recycled storage is
/// simply dropped. Ring traffic has at most a handful of frames in flight
/// per node, so a small cap bounds memory without hurting the hit rate.
pub const MAX_POOLED_BUFFERS: usize = 64;

/// A shared pool of reusable frame buffers.
///
/// The hot path of the protocol allocates one buffer per hop (encode →
/// freeze → send → decode → drop). The pool closes that loop: senders
/// [`acquire`](FramePool::acquire) storage, receivers hand exhausted
/// frames back with [`recycle`](FramePool::recycle), and the next send
/// reuses the allocation. Recycling is best-effort — a frame whose
/// storage is still shared (or windowed) is silently dropped instead.
///
/// Cloning is cheap; clones share the same pool.
#[derive(Debug, Clone, Default)]
pub struct FramePool {
    buffers: Arc<Mutex<Vec<BytesMut>>>,
    metrics: Option<TransportMetrics>,
}

impl FramePool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        FramePool::default()
    }

    /// Creates an empty pool that reports its occupancy high-water mark
    /// into `metrics` (see [`TransportMetrics::pooled_buffers_high_water`]).
    #[must_use]
    pub fn with_metrics(metrics: TransportMetrics) -> Self {
        FramePool {
            buffers: Arc::default(),
            metrics: Some(metrics),
        }
    }

    /// Hands out an empty buffer, reusing pooled storage when available.
    #[must_use]
    pub fn acquire(&self) -> BytesMut {
        self.buffers.lock().pop().unwrap_or_default()
    }

    /// Returns a frame's storage to the pool, if this was the last handle
    /// to it. Shared or windowed frames are dropped silently.
    pub fn recycle(&self, frame: Bytes) {
        if let Ok(buf) = frame.try_into_mut() {
            self.recycle_mut(buf);
        }
    }

    /// Returns a mutable buffer to the pool directly.
    pub fn recycle_mut(&self, mut buf: BytesMut) {
        buf.clear();
        let pooled = {
            let mut buffers = self.buffers.lock();
            if buffers.len() < MAX_POOLED_BUFFERS {
                buffers.push(buf);
            }
            buffers.len()
        };
        if let Some(metrics) = &self.metrics {
            metrics.record_pooled(pooled);
        }
    }

    /// Buffers currently waiting in the pool.
    #[must_use]
    pub fn pooled(&self) -> usize {
        self.buffers.lock().len()
    }
}

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

    /// The frame-buffer pool this endpoint draws from.
    ///
    /// The default is a fresh unshared pool, which degenerates to plain
    /// allocation; real endpoints share one pool per network so receivers'
    /// recycled buffers feed senders.
    fn pool(&self) -> FramePool {
        FramePool::new()
    }

    /// A handle that ends this endpoint's blocked receive from any
    /// thread; see [`Waker`].
    fn waker(&self) -> Waker;
}

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

/// Encodes `value` into a buffer from `pool` and sends it to `to` as one
/// frame carrying `logical` piggybacked messages (1 for an unbatched hop).
///
/// Drawing the buffer from the transport's shared [`FramePool`] makes the
/// steady-state cost a copy into recycled storage, not an allocation. The
/// wire encode and the transport hand-off are timed as separate
/// [`Phase::Encode`] and [`Phase::Send`] spans under `ctx`; with a
/// disabled recorder that costs two branches and no clock reads.
///
/// # Errors
///
/// Propagates transport errors.
pub fn send_value<T: WireEncode>(
    transport: &mut dyn Transport,
    pool: &FramePool,
    to: NodeId,
    value: &T,
    logical: u64,
    recorder: &Recorder,
    ctx: Ctx,
) -> Result<(), RingError> {
    let encode_started = recorder.clock();
    let mut buf = pool.acquire();
    encode_into(value, &mut buf);
    let frame = buf.freeze();
    recorder.record(Phase::Encode, ctx, encode_started);
    let send_started = recorder.clock();
    let result = transport.send_many(to, frame, logical);
    recorder.record(Phase::Send, ctx, send_started);
    result
}

// ---------------------------------------------------------------------------
// In-memory network
// ---------------------------------------------------------------------------

/// A zero-copy in-process network of `n` mailboxes built on crossbeam
/// channels. The reference substrate for simulations and tests.
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
    pool: FramePool,
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
        let metrics = TransportMetrics::new();
        InMemoryNetwork {
            senders,
            receivers,
            pool: FramePool::with_metrics(metrics.clone()),
            metrics,
        }
    }

    /// Shared transport metrics for the whole network.
    #[must_use]
    pub fn metrics(&self) -> TransportMetrics {
        self.metrics.clone()
    }

    /// Shared frame-buffer pool for the whole network.
    #[must_use]
    pub fn pool(&self) -> FramePool {
        self.pool.clone()
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
                pool: self.pool.clone(),
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
    pool: FramePool,
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

    fn pool(&self) -> FramePool {
        self.pool.clone()
    }

    fn waker(&self) -> Waker {
        Waker {
            node: self.node,
            inbox: self.senders[self.node.get()].clone(),
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
fn read_frame<R: Read>(stream: &mut R, pool: &FramePool) -> Result<(NodeId, Bytes), RingError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    stream.read_exact(&mut header)?;
    let from = u64::from_le_bytes(header[..8].try_into().expect("8 bytes")) as usize;
    let len = u32::from_le_bytes(header[8..].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_LEN {
        return Err(RingError::Decode {
            reason: "frame exceeds maximum length",
        });
    }
    let mut payload = pool.acquire();
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
    pool: FramePool,
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
        let metrics = TransportMetrics::new();
        Ok(TcpNetwork {
            addrs,
            listeners,
            pool: FramePool::with_metrics(metrics.clone()),
            metrics,
        })
    }

    /// Shared transport metrics for the whole network.
    #[must_use]
    pub fn metrics(&self) -> TransportMetrics {
        self.metrics.clone()
    }

    /// Shared frame-buffer pool for the whole network (all endpoints and
    /// acceptor read loops draw from it; loopback means one process).
    #[must_use]
    pub fn pool(&self) -> FramePool {
        self.pool.clone()
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
            let (tx, rx) = unbounded();
            let shutdown = Arc::new(AtomicBool::new(false));
            let waker = Waker {
                node: NodeId::new(i),
                inbox: tx.clone(),
            };
            spawn_acceptor(listener, tx, Arc::clone(&shutdown), self.pool.clone());
            out.push(TcpEndpoint {
                node: NodeId::new(i),
                addrs: Arc::clone(&addrs),
                my_addr: addrs[i],
                outgoing: Mutex::new(HashMap::new()),
                inbox: rx,
                waker,
                shutdown,
                metrics: self.metrics.clone(),
                pool: self.pool.clone(),
            });
        }
        Ok(out)
    }
}

/// Accepts connections and pumps their frames into the endpoint's inbox.
fn spawn_acceptor(
    listener: TcpListener,
    tx: Sender<(NodeId, Bytes)>,
    shutdown: Arc<AtomicBool>,
    pool: FramePool,
) {
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            let tx = tx.clone();
            let pool = pool.clone();
            std::thread::spawn(move || {
                // Per-connection reader: runs until EOF or error. Payload
                // buffers come from the shared pool, so steady-state reads
                // reuse storage recycled by the consuming driver.
                while let Ok(frame) = read_frame(&mut stream, &pool) {
                    if tx.send(frame).is_err() {
                        break;
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
    shutdown: Arc<AtomicBool>,
    metrics: TransportMetrics,
    pool: FramePool,
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
        match result {
            Ok(()) => {
                // The frame's storage is local to this process; reclaim it
                // for the next send.
                self.pool.recycle(frame);
                Ok(())
            }
            Err(e) => {
                // Connection may have gone stale; drop it so the next send
                // reconnects.
                outgoing.remove(&to);
                Err(e)
            }
        }
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

    fn pool(&self) -> FramePool {
        self.pool.clone()
    }

    fn waker(&self) -> Waker {
        self.waker.clone()
    }
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor so it observes the flag and exits.
        let _ = TcpStream::connect(self.my_addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_from_bytes, WireDecode};

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
        let pool = ep.pool();
        send_value(
            ep,
            &pool,
            NodeId::new(to),
            &U64Frame(value),
            1,
            &Recorder::disabled(),
            Ctx::default(),
        )
        .unwrap();
    }

    /// Receives and decodes one `u64` frame, recycling its storage.
    fn recv_u64(ep: &mut dyn Transport) -> (NodeId, u64) {
        let (from, frame) = ep.recv_timeout(Duration::from_secs(5)).unwrap();
        let U64Frame(value) = decode_from_bytes(&frame).unwrap();
        ep.pool().recycle(frame);
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
        assert_eq!(metrics.messages_sent(), 1);
        assert_eq!(metrics.bytes_sent(), 5);
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
            assert_eq!(metrics.frames_sent(), 0);
        }
        let net = InMemoryNetwork::new(2);
        let metrics = net.metrics();
        check(net.endpoints().pop().unwrap(), &metrics);
        let net = TcpNetwork::bind(2).unwrap();
        let metrics = net.metrics();
        check(net.endpoints().unwrap().pop().unwrap(), &metrics);
    }

    #[test]
    fn frame_pool_recycles_unique_storage() {
        let pool = FramePool::new();
        let mut buf = pool.acquire();
        buf.extend_from_slice(b"payload");
        let frame = buf.freeze();
        pool.recycle(frame);
        assert_eq!(pool.pooled(), 1);
        let reused = pool.acquire();
        assert!(reused.is_empty());
        assert!(reused.capacity() >= 7, "recycled allocation is reused");
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn frame_pool_drops_shared_storage() {
        let pool = FramePool::new();
        let frame = Bytes::from(vec![1, 2, 3]);
        let clone = frame.clone();
        pool.recycle(frame);
        assert_eq!(pool.pooled(), 0, "shared frames must not be pooled");
        drop(clone);
    }

    #[test]
    fn send_many_counts_one_frame_many_messages() {
        let net = InMemoryNetwork::new(2);
        let metrics = net.metrics();
        let mut eps = net.endpoints();
        eps[0]
            .send_many(NodeId::new(1), Bytes::from_static(b"batched!"), 8)
            .unwrap();
        assert_eq!(metrics.frames_sent(), 1);
        assert_eq!(metrics.messages_sent(), 8);
        assert_eq!(metrics.bytes_sent(), 8);
        let (_, frame) = eps[1].recv().unwrap();
        assert_eq!(&frame[..], b"batched!");
    }

    #[test]
    fn in_memory_round_trip_recycles_into_shared_pool() {
        let net = InMemoryNetwork::new(2);
        let pool = net.pool();
        let mut eps = net.endpoints();
        send_u64(&mut eps[0], 1, 77);
        assert_eq!(recv_u64(&mut eps[1]).1, 77);
        assert_eq!(
            pool.pooled(),
            1,
            "consumed frame storage returns to the network pool"
        );
        // A second exchange must not grow the pool: it reuses the buffer.
        send_u64(&mut eps[1], 0, 88);
        assert_eq!(recv_u64(&mut eps[0]).1, 88);
        assert_eq!(pool.pooled(), 1);
    }

    #[test]
    fn pool_high_water_mark_reported_to_metrics() {
        let net = InMemoryNetwork::new(2);
        let metrics = net.metrics();
        let mut eps = net.endpoints();
        assert_eq!(metrics.pooled_buffers_high_water(), 0);
        for i in 0..4u64 {
            send_u64(&mut eps[0], 1, i);
        }
        for _ in 0..4 {
            recv_u64(&mut eps[1]);
        }
        // Four frames were consumed one at a time: the pool never held
        // more than one buffer, and the watermark is bounded by the cap.
        let hwm = metrics.pooled_buffers_high_water();
        assert!(hwm >= 1);
        assert!(hwm <= MAX_POOLED_BUFFERS as u64);
    }

    #[test]
    fn send_value_counts_logical_messages_and_traces_phases() {
        let net = InMemoryNetwork::new(2);
        let metrics = net.metrics();
        let mut eps = net.endpoints();
        let pool = eps[0].pool();
        let recorder = Recorder::stats_only();
        send_u64(&mut eps[0], 1, 41);
        send_value(
            &mut eps[0],
            &pool,
            NodeId::new(1),
            &U64Frame(42),
            3,
            &recorder,
            Ctx::default(),
        )
        .unwrap();
        assert_eq!(recv_u64(&mut eps[1]).1, 41);
        assert_eq!(recv_u64(&mut eps[1]).1, 42);
        assert_eq!(metrics.frames_sent(), 2);
        assert_eq!(metrics.messages_sent(), 4);
        assert_eq!(metrics.bytes_sent(), 16);
        // Only the traced send was timed.
        assert_eq!(recorder.phase(Phase::Encode).count, 1);
        assert_eq!(recorder.phase(Phase::Send).count, 1);
    }

    #[test]
    fn tcp_send_recycles_sealed_frame() {
        let net = TcpNetwork::bind(2).unwrap();
        let pool = net.pool();
        let mut eps = net.endpoints().unwrap();
        send_u64(&mut eps[0], 1, 123);
        assert_eq!(recv_u64(&mut eps[1]).1, 123);
        // Sender-side storage was reclaimed after the vectored write
        // (receiver-side recycling also lands here, so allow either 1 or 2).
        assert!(pool.pooled() >= 1);
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
        let result = read_frame(&mut probe, &FramePool::new());
        assert!(
            matches!(result, Err(RingError::Io(ref e)) if e.kind() == std::io::ErrorKind::UnexpectedEof)
        );
        // The payload buffer only ever grew by one step ahead of the data.
        assert_eq!(probe.largest_request, READ_STEP);
    }

    #[test]
    fn read_frame_rejects_oversized_and_truncated_headers() {
        let pool = FramePool::new();
        let over = header(0, MAX_FRAME_LEN as u32 + 1);
        assert!(matches!(
            read_frame(&mut over.as_slice(), &pool),
            Err(RingError::Decode { .. })
        ));
        // The peer stops after 5 of the 12 header bytes.
        let cut = &header(0, 4)[..5];
        assert!(matches!(
            read_frame(&mut &cut[..], &pool),
            Err(RingError::Io(ref e)) if e.kind() == std::io::ErrorKind::UnexpectedEof
        ));
    }

    #[test]
    fn frames_round_trip_across_read_step_boundaries() {
        let pool = FramePool::new();
        for len in [0, 1, READ_STEP, READ_STEP + 1] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut wire = Vec::new();
            write_frame(&mut wire, NodeId::new(7), &payload).unwrap();
            let mut cursor = wire.as_slice();
            let (from, frame) = read_frame(&mut cursor, &pool).unwrap();
            assert_eq!(from, NodeId::new(7));
            assert_eq!(&frame[..], &payload[..], "payload of {len} bytes");
            assert!(cursor.is_empty(), "frame of {len} bytes left bytes unread");
        }
    }
}
