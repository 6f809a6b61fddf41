//! The persistent service runtime: long-lived node workers answering a
//! stream of top-k queries over one standing ring.
//!
//! [`run_distributed`](crate::distributed::run_distributed) tears the
//! world down after every query — n worker setups, n endpoint setups and
//! (over TCP) n threads and n connection handshakes per invocation — so
//! setup cost dominates sustained throughput, exactly the regime the
//! paper's "heavy traffic from millions of users" motivation cares
//! about. A [`ServiceRuntime`] instead starts each node's worker
//! **once**; the worker owns its database snapshot, its ring endpoint and
//! its established successor connection for the lifetime of the service
//! and reuses them for every subsequent query.
//!
//! On top of the standing ring sits a **pipelined scheduler**: a ring
//! traversal only ever occupies one hop at a time, so the service keeps
//! up to `depth` independent queries in flight simultaneously, each at a
//! different position on the ring. Wire frames are tagged with a
//! scheduler-assigned query id ([`SlotMessage`](crate::SlotMessage)) so
//! workers demultiplex interleaved traversals onto per-query slots; each
//! slot holds one node machine (`crate::node`) per member query, owning
//! its seed-derived RNG stream and step log, so every transcript stays
//! bit-identical to the same query's solo
//! [`run_distributed`](crate::distributed::run_distributed) run
//! regardless of how traversals interleave. Pipelining changes only
//! *scheduling*, never per-query randomness.
//!
//! One machine, two shells. The worker alone drives the node machine, and
//! it runs in one of two shells that call the same `assign`, `open`,
//! `dispatch` and `settle`:
//!
//! - **In memory**, all n workers run on the scheduler's thread. Every
//!   send appends `(to, from, frame)` to the network's one FIFO (a
//!   [`FifoNetwork`](privtopk_ring::transport::FifoNetwork)), and the
//!   scheduler pops frames and dispatches each to its node's worker until
//!   the report it waits for is filed. A FIFO that drains with slots
//!   still open can never move again, so those slots fail at once with a
//!   timeout. No thread, control channel, wake or blocking wait exists.
//! - **Threads** (TCP, lossy and chaos networks): each worker has a node
//!   thread of its own. The scheduler queues each query's assignment on
//!   every worker's control channel, the starting node's last, and wakes
//!   only the starting node through its endpoint's [`Waker`]. Every other
//!   node reads its assignment when the query's first frame reaches it,
//!   and that frame cannot exist before the starting node has read its
//!   own. Shutdown hangs up the control channels and wakes every worker.
//!   Over TCP each frame is dispatched on the thread that read it off its
//!   socket ([`Transport::push_frames`]), under the worker's lock, so a
//!   hop wakes one thread, not a reader and then the worker. A reader
//!   that finds the worker busy queues the frame for whichever thread
//!   holds it, and the node thread keeps the wakes, the receive deadline
//!   and the exit. The node thread of a lossy or chaos worker reads its
//!   endpoint itself and blocks only there, because the reliability
//!   layer's stop-and-wait send must own the endpoint on one thread.
//!
//! One-shot queries and batches run on the same workers:
//! `run_distributed` and `run_distributed_batch` start one ring of n
//! workers with every slot already open (one per solo query or lock-step
//! batch group, all in flight at once) and no live control channel; in
//! memory they run until the FIFO drains.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use privtopk_domain::{LocalTopkSource, NodeId, TopKVector};
use privtopk_observe::{Ctx, Histogram, HistogramSnapshot, Laps, Phase, Recorder};
use privtopk_ring::transport::{send_value, FrameQueue, FrameSink, Transport, Waker};
use privtopk_ring::wire::decode_from_bytes;
use privtopk_ring::{RingError, TransportMetrics};

use crate::distributed::{
    build_endpoints, CrashSchedule, DistributedBatchOutcome, Drive, NetworkKind, RunFailure, Wire,
    RECV_TIMEOUT,
};
use crate::local::TopkScratch;
use crate::messages::SlotFrame;
use crate::node::{
    assemble, check_query, k_mismatch, NodeMachine, Slot, SlotHop, SlotInit, WorkerReport,
};
use crate::{BatchJob, ProtocolConfig, ProtocolError, StepRecord, Transcript};

/// Seed for the fault-injection RNGs of a lossy or chaos service
/// network. Drop decisions are transport-level and never reach a
/// transcript, so a fixed stream is fine.
const FAULT_SEED: u64 = 0x5EED_F417;

/// One query's execution on the standing ring, as observed by the
/// scheduler: the merged transcript plus what every node learned.
///
/// Bit-identical to the corresponding fields of the query's solo
/// [`run_distributed`](crate::distributed::run_distributed) outcome.
/// Wire accounting is *not* per-query here — concurrent traversals share
/// the transport — so cumulative counters live on
/// [`ServiceRuntime::metrics`] instead.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceOutcome {
    /// The assembled global transcript (merged from all workers).
    pub transcript: Transcript,
    /// The final result as learned by each node (indexed by `NodeId`).
    pub per_node_results: Vec<TopKVector>,
}

/// A handle for one submitted query, redeemed by
/// [`ServiceRuntime::collect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryTicket {
    query: u64,
}

impl QueryTicket {
    /// The scheduler-assigned query id this ticket redeems — the same
    /// id the query's trace spans carry, so embedders can correlate a
    /// collected outcome with its telemetry.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.query
    }
}

/// One node's verdict on one query: its step log and learned result, or
/// the first error that killed the slot. `query` names the member query
/// of a result and the slot of an error (the same on a standing service).
struct SlotReport {
    query: u64,
    node: NodeId,
    result: Result<(Vec<StepRecord>, TopKVector), ProtocolError>,
}

/// The long-lived per-node worker: owns the node's ring endpoint and, on a
/// standing service, its database snapshot, and multiplexes any number of
/// open [`Slot`]s over them until the scheduler hangs up.
///
/// In memory the scheduler calls [`assign`](Self::assign) and
/// [`dispatch`](Self::dispatch) itself. On threads
/// ([`run_threaded`]) a TCP worker is a [`PushedWorker`]: its socket
/// readers dispatch frames and its node thread waits for wakes and the
/// receive deadline. Any other worker's node thread runs
/// [`run`](Self::run), where the endpoint is its only blocking point.
/// Assignments queue on its control channel, which it reads at three
/// points only: when it has no slot open, on a wake (a frame from its own
/// node, see [`Waker`]), and when a frame names a slot it has not opened.
struct ServiceWorker {
    me: NodeId,
    /// The snapshot a standing service's assignments open machines on. A
    /// one-shot ring opens every slot up front and has none; only a
    /// standing service assigns, so `assign` finds it set.
    local: Option<TopKVector>,
    endpoint: Box<dyn Transport>,
    control: Receiver<Arc<SlotInit>>,
    reports: Sender<SlotReport>,
    drain_on_exit: Option<Duration>,
    recv_timeout: Duration,
    /// One-shot runs only: the round before which this node dies.
    crash_at: Option<u32>,
    slots: HashMap<u64, Slot>,
    /// Set once the scheduler has hung up, the transport broke or the
    /// node crashed, and from the start on a one-shot ring: no more
    /// assignments are read, and the worker exits once its open slots
    /// close.
    draining: bool,
    /// Hops run so far, kick-offs and dispatched frames alike: a
    /// [`PushedWorker`]'s node thread reads it to tell a stalled ring
    /// from one whose frames its readers dispatch.
    hops: u64,
    recorder: Recorder,
    /// The spans of the hop in progress, filed when it ends.
    laps: Laps,
    /// The spans of an interrupted hop while a kick-off, a hop of its
    /// own, runs inside it (see [`open`](Self::open)).
    held: Laps,
    /// Hop-kernel working memory, shared across every in-flight slot:
    /// the scratch carries no state between hops, so pipelined queries
    /// cannot perturb each other's transcripts through it.
    scratch: TopkScratch,
}

impl ServiceWorker {
    fn new(
        me: NodeId,
        local: Option<TopKVector>,
        endpoint: Box<dyn Transport>,
        control: Receiver<Arc<SlotInit>>,
        reports: Sender<SlotReport>,
        drain_on_exit: Option<Duration>,
        recorder: Recorder,
    ) -> ServiceWorker {
        ServiceWorker {
            me,
            local,
            endpoint,
            control,
            reports,
            drain_on_exit,
            recv_timeout: RECV_TIMEOUT,
            crash_at: None,
            slots: HashMap::new(),
            draining: false,
            hops: 0,
            recorder,
            laps: Laps::default(),
            held: Laps::default(),
            scratch: TopkScratch::new(),
        }
    }

    /// The node thread's loop when the endpoint cannot push frames: it
    /// receives each frame itself, and waits only on the endpoint.
    fn run(&mut self) {
        loop {
            if self.slots.is_empty() {
                self.read_control();
                if self.slots.is_empty() && self.draining {
                    break;
                }
            }
            match self.recv_frame() {
                Ok(Some((from, frame))) => self.dispatch(from, frame),
                Ok(None) => {}
                Err(error) => {
                    // A timeout fails every open slot. A broken transport
                    // gives the first slot the real error, the rest a
                    // disconnect, and ends the worker.
                    let broken = !matches!(error, ProtocolError::Ring(RingError::Timeout));
                    self.fail_all(error, || {
                        ProtocolError::Ring(if broken {
                            RingError::Disconnected
                        } else {
                            RingError::Timeout
                        })
                    });
                    self.draining |= broken;
                }
            }
        }
        // Over lossy transports, keep re-acknowledging retransmissions
        // for a grace window so peers whose ACKs were dropped finish: the
        // reliability layer re-ACKs each duplicate inside `recv`, and the
        // frames themselves are discarded.
        if let Some(window) = self.drain_on_exit {
            let deadline = Instant::now() + window;
            loop {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() || self.endpoint.recv_timeout(remaining).is_err() {
                    break;
                }
            }
        }
    }

    /// Opens every queued assignment, and starts draining once the
    /// scheduler has hung up. A draining worker reads no more.
    fn read_control(&mut self) {
        while !self.draining {
            match self.control.try_recv() {
                Ok(init) => self.assign(&init),
                Err(TryRecvError::Empty) => return,
                Err(TryRecvError::Disconnected) => self.draining = true,
            }
        }
    }

    /// Opens a one-shot ring's slots, each under its index as slot id.
    fn open_all(&mut self, slots: Vec<Slot>) {
        for (id, slot) in slots.into_iter().enumerate() {
            self.open(id as u64, slot);
        }
    }

    /// Opens a one-member slot for an assigned query.
    fn assign(&mut self, init: &SlotInit) {
        let local = self.local.clone().expect("only a standing service assigns");
        match NodeMachine::open(self.me, local, init) {
            Ok(machine) => self.open(init.query, Slot::new(vec![machine])),
            Err(e) => self.report(init.query, Err(e)),
        }
    }

    /// Opens slot `id`; a starting node kicks off round 1 at once.
    ///
    /// The kick-off is a hop of its own, and a threaded worker may run
    /// it inside another: it reads assignments while it waits for a
    /// frame and when a frame names a slot it has not opened. The
    /// interrupted hop's spans wait in `held` meanwhile.
    fn open(&mut self, id: u64, mut slot: Slot) {
        self.hops += 1;
        if self.crash_due(&slot) {
            return self.crash(id);
        }
        std::mem::swap(&mut self.laps, &mut self.held);
        self.recorder.begin_hop(&mut self.laps);
        let hop = slot.advance(None, &mut self.scratch, &mut self.laps);
        self.settle(id, slot, hop);
        self.recorder.file_hop(&mut self.laps);
        std::mem::swap(&mut self.laps, &mut self.held);
    }

    /// Opens the hop a frame's arrival starts: its `Recv` span runs from
    /// now until the frame's slot is found.
    fn begin_recv(&mut self) {
        self.recorder.begin_hop(&mut self.laps);
        self.laps.start();
    }

    /// Waits on the endpoint for a peer's frame and returns it with its
    /// sender, its hop open (see [`begin_recv`](Self::begin_recv)). A
    /// wake (a frame from this node) makes the worker read its control
    /// channel.
    ///
    /// With no slot open the wait has no deadline. It is one
    /// [`Phase::Idle`] span, up to the frame or wake that ends it; a wake
    /// returns `None` to the loop, which reads the control channel since
    /// no slot is open, and the frame's `Recv` span starts at its arrival,
    /// so every dispatched frame has exactly one `Recv` span whether or
    /// not the worker was idle. With slots open the wait keeps going
    /// through wakes until a frame arrives or the deadline fixed when it
    /// began passes, and it is the `Recv` span of the frame that ends it.
    fn recv_frame(&mut self) -> Result<Option<(NodeId, Bytes)>, ProtocolError> {
        if self.slots.is_empty() {
            let started = self.recorder.clock();
            let (from, frame) = self.endpoint.recv()?;
            let ctx = Ctx::default().with_node(self.me.get() as u32);
            self.recorder.record(Phase::Idle, ctx, started);
            if from == self.me {
                return Ok(None);
            }
            self.begin_recv();
            return Ok(Some((from, frame)));
        }
        self.begin_recv();
        let deadline = Instant::now() + self.recv_timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let (from, frame) = self.endpoint.recv_timeout(remaining)?;
            if from != self.me {
                return Ok(Some((from, frame)));
            }
            self.read_control();
        }
    }

    /// Demultiplexes one tagged frame onto its slot, then files the
    /// frame's hop.
    fn dispatch(&mut self, from: NodeId, frame: Bytes) {
        self.hops += 1;
        let msg: SlotFrame = match decode_from_bytes(&frame) {
            Ok(msg) => msg,
            Err(e) => {
                // An unattributable frame: the ring is corrupt for
                // everyone currently on it.
                self.fail_all(e.into(), || ProtocolError::Ring(RingError::Disconnected));
                return;
            }
        };
        let id = msg.slot;
        // A query's first frame here finds its assignment still queued:
        // the scheduler wakes only the starting node.
        let slot = self.slots.remove(&id).or_else(|| {
            self.read_control();
            self.slots.remove(&id)
        });
        // Still no open slot: the query is over here (it failed at this
        // node while upstream kept forwarding) or was never assigned (a
        // peer injected the frame), so the frame is dropped.
        let Some(mut slot) = slot else {
            return;
        };
        self.laps.lap(Phase::Recv, slot.span_ctx(&msg.payload));
        let hop = slot.advance(Some((from, msg.payload)), &mut self.scratch, &mut self.laps);
        self.settle(id, slot, hop);
        self.recorder.file_hop(&mut self.laps);
    }

    /// Acts on one slot's hop: sends what it forwards, then reports each
    /// member once the slot's queries are over at this node, or keeps the
    /// slot open — unless a scheduled crash is due before its next round.
    fn settle(&mut self, id: u64, slot: Slot, hop: Result<SlotHop, ProtocolError>) {
        let settled = hop.and_then(|hop| {
            if let Some(payload) = hop.forward {
                // Tagged with its slot id, for the successor's demux.
                let ctx = slot.span_ctx(&payload);
                send_value(
                    self.endpoint.as_mut(),
                    slot.successor(),
                    &SlotFrame { slot: id, payload },
                    slot.width() as u64,
                    &mut self.laps,
                    ctx,
                )?;
            }
            Ok(hop.results)
        });
        match settled {
            Err(e) => self.report(id, Err(e)),
            Ok(Some(results)) => {
                for (query, steps, result) in slot.into_reports(results) {
                    self.report(query, Ok((steps, result)));
                }
            }
            Ok(None) if self.crash_due(&slot) => self.crash(id),
            Ok(None) => {
                self.slots.insert(id, slot);
            }
        }
    }

    fn crash_due(&self, slot: &Slot) -> bool {
        self.crash_at.is_some() && slot.next_round() == self.crash_at
    }

    /// A scheduled crash: the node dies silently, mid-protocol, before it
    /// receives or sends anything for the round. Its slots report the
    /// crash and the worker leaves the wire without a drain.
    fn crash(&mut self, id: u64) {
        let node = self.me;
        let crashed = move || ProtocolError::WorkerCrashed { node };
        self.report(id, Err(crashed()));
        self.fail_all(crashed(), crashed);
        self.draining = true;
        self.drain_on_exit = None;
    }

    fn report(&mut self, query: u64, result: Result<(Vec<StepRecord>, TopKVector), ProtocolError>) {
        let node = self.me;
        let _ = self.reports.send(SlotReport {
            query,
            node,
            result,
        });
    }

    /// Fails every open slot: one with `first`, the others with `rest()`
    /// (`ProtocolError` is not `Clone`, hence the factory).
    fn fail_all(&mut self, first: ProtocolError, rest: impl Fn() -> ProtocolError) {
        let mut first = Some(first);
        for id in std::mem::take(&mut self.slots).into_keys() {
            let error = first.take().unwrap_or_else(&rest);
            self.report(id, Err(error));
        }
    }
}

/// A threaded worker whose endpoint pushes frames
/// ([`Transport::push_frames`]): each frame is dispatched on the reader
/// thread that took it off its socket, and the node thread keeps the
/// wakes, the receive deadline and the exit ([`watch`](Self::watch)).
///
/// A reader only ever `try_lock`s the worker and queues the frame when
/// that fails, and every thread that holds the worker dispatches the
/// queue before it lets go ([`release`](Self::release)). So a reader
/// never waits for a worker, and a lock holder's socket write waits only
/// on the peer's reader, which does not either.
struct PushedWorker {
    worker: Mutex<ServiceWorker>,
    /// Frames whose reader found the worker busy.
    queue: Mutex<VecDeque<(NodeId, Bytes)>>,
}

impl PushedWorker {
    /// Takes the worker, waiting for whichever thread holds it.
    fn lock(&self) -> MutexGuard<'_, ServiceWorker> {
        self.worker.lock().expect("worker lock poisoned")
    }

    fn queued(&self) -> MutexGuard<'_, VecDeque<(NodeId, Bytes)>> {
        self.queue.lock().expect("frame queue poisoned")
    }

    /// Queues a peer frame, and dispatches it on the calling thread
    /// unless another thread holds the worker and will.
    fn push(&self, from: NodeId, frame: Bytes) {
        self.queued().push_back((from, frame));
        if let Ok(worker) = self.worker.try_lock() {
            self.release(worker);
        }
    }

    /// Dispatches every queued frame, then lets the worker go. A frame
    /// queued while the worker was held found the lock taken, so the
    /// queue is checked once more after letting go, and whoever holds the
    /// worker next dispatches what is left. Wakes the node thread when
    /// this closed a draining worker's last slot, so that it exits.
    fn release<'a>(&'a self, mut worker: MutexGuard<'a, ServiceWorker>) {
        loop {
            let was_open = !worker.slots.is_empty();
            loop {
                let next = self.queued().pop_front();
                let Some((from, frame)) = next else { break };
                worker.begin_recv();
                worker.dispatch(from, frame);
            }
            if was_open && worker.draining && worker.slots.is_empty() {
                worker.endpoint.waker().wake();
            }
            drop(worker);
            if self.queued().is_empty() {
                return;
            }
            match self.worker.try_lock() {
                Ok(again) => worker = again,
                Err(_) => return,
            }
        }
    }

    /// The node thread's loop. It reads assignments on a wake and pushes
    /// any peer frame a reader queued in the inbox before the sink was
    /// installed. Once no hop has run for a whole receive deadline it
    /// fails every open slot. The deadline is fixed when this thread
    /// last saw the hop count change, and it looks at least every quarter
    /// deadline, so a stalled slot fails between one and one and a
    /// quarter deadlines after its last hop; a wake that opens no slot
    /// does not extend it. It returns once a draining worker has no slot
    /// open.
    fn watch(&self, inbox: Receiver<(NodeId, Bytes)>) {
        let (me, timeout) = {
            let worker = self.lock();
            (worker.me, worker.recv_timeout)
        };
        // The hop count the current wait began at, and its deadline.
        let mut wait = (u64::MAX, Instant::now());
        loop {
            let worker = self.lock();
            if worker.draining && worker.slots.is_empty() {
                return;
            }
            if worker.hops != wait.0 {
                wait = (worker.hops, Instant::now() + timeout);
            }
            self.release(worker);
            let remaining = wait.1.saturating_duration_since(Instant::now());
            let event = match inbox.recv_timeout(remaining.min(timeout / 4)) {
                Ok((from, frame)) if from != me => {
                    self.push(from, frame);
                    continue;
                }
                event => event,
            };
            let mut worker = self.lock();
            match event {
                Ok(_) => worker.read_control(),
                Err(RecvTimeoutError::Timeout)
                    if worker.hops == wait.0 && Instant::now() >= wait.1 =>
                {
                    let timeout = || ProtocolError::Ring(RingError::Timeout);
                    worker.fail_all(timeout(), timeout);
                    // Nothing is open now, so the next wait gets a fresh
                    // deadline instead of polling this expired one.
                    wait.0 = u64::MAX;
                }
                Err(RecvTimeoutError::Timeout) => {}
                // The endpoint holds a sender of its own inbox, so this
                // cannot happen while the worker lives.
                Err(RecvTimeoutError::Disconnected) => {
                    let gone = || ProtocolError::Ring(RingError::Disconnected);
                    worker.fail_all(gone(), gone);
                    worker.draining = true;
                }
            }
            self.release(worker);
        }
    }
}

/// A threaded worker's life on its node thread. It opens `slots` (a
/// one-shot ring's) and installs its endpoint's push hook while it holds
/// the worker, so no reader dispatches a frame before every slot is
/// open, then watches ([`PushedWorker::watch`]). An endpoint that cannot
/// push runs the pull loop ([`ServiceWorker::run`]) instead.
fn run_threaded(worker: ServiceWorker, slots: Vec<Slot>) {
    let pushed = Arc::new(PushedWorker {
        worker: Mutex::new(worker),
        queue: Mutex::default(),
    });
    let mut worker = pushed.lock();
    worker.open_all(slots);
    // The readers hold the worker weakly: it owns their endpoint.
    let weak = Arc::downgrade(&pushed);
    let sink: FrameSink = Arc::new(move |from, frame| {
        if let Some(pushed) = weak.upgrade() {
            pushed.push(from, frame);
        }
    });
    match worker.endpoint.push_frames(sink) {
        Some(inbox) => {
            pushed.release(worker);
            pushed.watch(inbox);
        }
        None => worker.run(),
    }
}

/// The in-memory shell: every worker of a ring on the caller's thread,
/// fed from the network's one FIFO.
struct FifoRing {
    workers: Vec<ServiceWorker>,
    queue: FrameQueue,
}

impl FifoRing {
    /// Delivers the oldest queued frame to its node's worker. With none
    /// queued nothing can move again, so every slot still open fails with
    /// [`RingError::Timeout`], as a threaded survivor's does once its
    /// deadline passes, and this returns `false`.
    fn deliver(&mut self) -> bool {
        let Some((to, from, frame)) = self.queue.pop() else {
            let timeout = || ProtocolError::Ring(RingError::Timeout);
            for worker in &mut self.workers {
                worker.fail_all(timeout(), timeout);
            }
            return false;
        };
        // A frame for a node outside the ring has no worker to go to.
        if let Some(worker) = self.workers.get_mut(to.get()) {
            worker.begin_recv();
            worker.dispatch(from, frame);
        }
        true
    }
}

/// Runs `jobs` on one one-shot ring of service workers. Jobs that agree
/// on round count and ring order form a lock-step group, and each group is
/// one slot whose id is its group index. Every worker starts with every
/// slot open and its control channel hung up, so every group is in flight
/// at once, no assignment ever crosses a channel, and a worker exits once
/// its last slot closes. In memory the workers run on the caller's
/// thread until the FIFO drains; on threads each opens its slots before
/// its readers may dispatch ([`run_threaded`]). Every node
/// reports each member query or an error, so a failure names every node
/// that crashed. The transport counters are published into `recorder`
/// once every query completes.
pub(crate) fn run_once(
    jobs: &[BatchJob],
    network: &NetworkKind,
    crashes: &CrashSchedule,
    recv_timeout: Duration,
    recorder: &Recorder,
) -> Result<DistributedBatchOutcome, RunFailure> {
    let fail = |error: ProtocolError| RunFailure {
        crashed: Vec::new(),
        error,
    };
    crate::batch::validate_batch_shape(jobs).map_err(fail)?;
    let n = jobs[0].locals.len();
    for job in jobs {
        if job.locals.len() != n {
            return Err(fail(ProtocolError::InvalidBatch {
                reason: "batched jobs must share one federation (node count)",
            }));
        }
        check_query(&job.config, n, k_mismatch(job.config.k(), &job.locals)).map_err(fail)?;
    }
    // Each job's rounds and ring order come from its own seed, as in its
    // solo run; its query id is its index in the batch.
    let inits: Vec<SlotInit> = jobs
        .iter()
        .enumerate()
        .map(|(j, job)| SlotInit::new(j as u64, &job.config, n, job.seed))
        .collect::<Result<_, _>>()
        .map_err(fail)?;
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (j, init) in inits.iter().enumerate() {
        let lockstep = |members: &&mut Vec<usize>| {
            let lead = &inits[members[0]];
            lead.rounds == init.rounds && lead.topology.order() == init.topology.order()
        };
        match groups.iter_mut().find(lockstep) {
            Some(members) => members.push(j),
            None => groups.push(vec![j]),
        }
    }
    let (endpoints, metrics, drive) =
        build_endpoints(network, n, jobs[0].seed, recorder).map_err(fail)?;
    // Every node's slots, one machine per member, opened before any
    // worker starts.
    let slots: Vec<Vec<Slot>> = (0..n)
        .map(|i| {
            groups
                .iter()
                .map(|members| {
                    let open = |&j: &usize| {
                        NodeMachine::open(NodeId::new(i), jobs[j].locals[i].clone(), &inits[j])
                    };
                    members
                        .iter()
                        .map(open)
                        .collect::<Result<_, _>>()
                        .map(Slot::new)
                })
                .collect()
        })
        .collect::<Result<_, _>>()
        .map_err(fail)?;
    let (report_tx, report_rx) = unbounded();
    let workers = endpoints.into_iter().enumerate().map(|(i, endpoint)| {
        let me = NodeId::new(i);
        // The sender drops here: the control plane is hung up from the
        // start.
        let (_, control) = unbounded();
        let mut worker = ServiceWorker::new(
            me,
            None,
            endpoint,
            control,
            report_tx.clone(),
            drive.drain_on_exit(),
            recorder.clone(),
        );
        worker.recv_timeout = recv_timeout;
        worker.crash_at = crashes.round_for(me);
        worker.draining = true;
        worker
    });
    match &drive {
        Drive::Fifo(queue) => {
            let mut ring = FifoRing {
                workers: workers.collect(),
                queue: queue.clone(),
            };
            for (worker, slots) in ring.workers.iter_mut().zip(slots) {
                worker.open_all(slots);
            }
            while ring.deliver() {}
        }
        Drive::Threads { .. } => {
            let handles: Vec<_> = workers
                .zip(slots)
                .map(|(worker, slots)| std::thread::spawn(move || run_threaded(worker, slots)))
                .collect();
            // A worker that panicked files too few reports; the verdicts
            // below turn its silence into `WorkerFailed`.
            for handle in handles {
                let _ = handle.join();
            }
        }
    }
    let mut by_job: Vec<Vec<WorkerReport>> = jobs.iter().map(|_| Vec::with_capacity(n)).collect();
    // Per node: how many member queries it reported, or its first error.
    let mut verdicts: Vec<Result<usize, ProtocolError>> = (0..n).map(|_| Ok(0)).collect();
    while let Ok(report) = report_rx.try_recv() {
        let (node, verdict) = (report.node, &mut verdicts[report.node.get()]);
        match (report.result, verdict.as_mut()) {
            (Ok((steps, result)), Ok(filed)) => {
                *filed += 1;
                by_job[report.query as usize].push(WorkerReport {
                    node,
                    steps,
                    result,
                });
            }
            (Err(error), Ok(_)) => *verdict = Err(error),
            (_, Err(_)) => {}
        }
    }
    let mut crashed = Vec::new();
    let mut first_error = None;
    for (position, verdict) in verdicts.into_iter().enumerate() {
        match verdict {
            Ok(filed) if filed == jobs.len() => {}
            Ok(_) => {
                first_error.get_or_insert(ProtocolError::WorkerFailed { position });
            }
            Err(ProtocolError::WorkerCrashed { node }) => crashed.push(node),
            Err(error) => {
                first_error.get_or_insert(error);
            }
        }
    }
    // With no other error, a crash is the failure (every survivor
    // finishing despite one cannot happen on a ring, but be defensive).
    let crash = crashed
        .first()
        .map(|&node| ProtocolError::WorkerCrashed { node });
    if let Some(error) = first_error.or(crash) {
        return Err(RunFailure { crashed, error });
    }
    let snap = metrics.take();
    snap.publish(recorder);
    let (transcripts, per_node_results) = by_job
        .into_iter()
        .zip(&inits)
        .map(|(reports, init)| {
            let outcome = assemble(init, reports);
            (outcome.transcript, outcome.per_node_results)
        })
        .unzip();
    Ok(DistributedBatchOutcome {
        transcripts,
        per_node_results,
        frames_sent: snap.frames_sent,
        logical_messages: snap.logical_messages,
        bytes_sent: snap.bytes_sent,
        groups: groups.len() as u32,
    })
}

/// A hook observing every query admitted into a service, fed nothing
/// but *protocol coordinates*: the (data-independent) configuration,
/// the ring size and the resolved round count. No private value, seed
/// or result ever reaches an observer, so whatever it accumulates is a
/// pure function of configuration — the foundation the live privacy
/// accountant builds on.
///
/// Observers run synchronously inside [`ServiceRuntime::submit`],
/// before the query's workers are assigned; they must be cheap and must
/// never block.
pub trait QueryObserver: Send + Sync {
    /// Called once per admitted query with its protocol coordinates.
    fn on_query(&self, config: &ProtocolConfig, n: usize, rounds: u32);
}

/// A standing federation of long-lived node workers answering a stream
/// of queries — see the [module docs](self) for the full picture.
///
/// Created by [`start`](ServiceRuntime::start); torn down by
/// [`shutdown`](ServiceRuntime::shutdown) or by a drop. Over threads,
/// shutdown drains in-flight queries and joins every worker thread, and
/// a drop drains them without waiting; an in-memory ring simply goes
/// with the runtime. [`submit`](Self::submit)
/// admits a query as soon as a pipeline slot frees up and returns a
/// [`QueryTicket`]; [`collect`](Self::collect) redeems it. In memory,
/// `collect` and a `submit` that waits for a free slot deliver the
/// ring's frames on the caller's thread.
pub struct ServiceRuntime {
    n: usize,
    k: usize,
    depth: usize,
    next_query: u64,
    in_flight: usize,
    shell: Shell,
    reports: Receiver<SlotReport>,
    /// Each in-flight query's ring coordinates and the node reports
    /// gathered so far.
    open: HashMap<u64, (Arc<SlotInit>, Vec<WorkerReport>)>,
    done: HashMap<u64, Result<ServiceOutcome, ProtocolError>>,
    metrics: TransportMetrics,
    collect_timeout: Duration,
    recorder: Recorder,
    shared: Arc<SchedulerShared>,
    observer: Option<Arc<dyn QueryObserver>>,
}

/// How a [`ServiceRuntime`] runs its workers.
enum Shell {
    /// In memory: every worker on the scheduler's thread.
    Fifo(FifoRing),
    /// One thread per worker.
    Threads {
        /// Each worker's assignment queue. A worker woken to find its
        /// queue hung up exits once its open slots close.
        controls: Vec<Sender<Arc<SlotInit>>>,
        wakers: Vec<Waker>,
        handles: Vec<std::thread::JoinHandle<()>>,
    },
}

/// The scheduler counters behind [`ServiceStats`], kept in atomics so a
/// [`ServiceStatsHandle`] on another thread (the Prometheus scrape
/// loop, a watcher) can snapshot them while the scheduler runs.
#[derive(Default)]
struct SchedulerShared {
    in_flight: AtomicUsize,
    queries_submitted: AtomicU64,
    queries_completed: AtomicU64,
    pipeline_high_water: AtomicUsize,
    queue_wait: Histogram,
}

impl SchedulerShared {
    fn set_in_flight(&self, value: usize) {
        self.in_flight.store(value, Ordering::Release);
        // The scheduler is single-threaded, so a read-then-max is safe.
        let high = self.pipeline_high_water.load(Ordering::Acquire);
        if value > high {
            self.pipeline_high_water.store(value, Ordering::Release);
        }
    }
}

/// A cloneable, `Send + Sync` live view of a running service's stats —
/// what the metrics endpoint renders from while the scheduler thread
/// owns the [`ServiceRuntime`] itself.
#[derive(Clone)]
pub struct ServiceStatsHandle {
    depth: usize,
    shared: Arc<SchedulerShared>,
    metrics: TransportMetrics,
}

impl ServiceStatsHandle {
    /// Snapshots the same [`ServiceStats`] as
    /// [`ServiceRuntime::stats`], readable from any thread.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let wire = self.metrics.peek();
        ServiceStats {
            depth: self.depth,
            in_flight: self.shared.in_flight.load(Ordering::Acquire),
            pipeline_high_water: self.shared.pipeline_high_water.load(Ordering::Acquire),
            queries_submitted: self.shared.queries_submitted.load(Ordering::Acquire),
            queries_completed: self.shared.queries_completed.load(Ordering::Acquire),
            queue_wait: self.shared.queue_wait.snapshot(),
            frames_sent: wire.frames_sent,
            logical_messages: wire.logical_messages,
            bytes_sent: wire.bytes_sent,
            retransmissions: wire.retransmissions,
            re_acks: wire.re_acks,
        }
    }
}

/// A live snapshot of a running service, readable mid-stream without
/// draining any counter — the service-side stats surface behind the
/// CLI's `--stats` flag and `FederationService::stats()`.
///
/// Pipeline occupancy and queue waits are maintained unconditionally;
/// the wire counters come from a non-draining
/// [`TransportMetrics::peek`]. Nothing here carries data values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// Configured maximum number of queries in flight.
    pub depth: usize,
    /// Queries currently occupying a pipeline slot.
    pub in_flight: usize,
    /// Highest simultaneous occupancy observed so far.
    pub pipeline_high_water: usize,
    /// Queries admitted into the pipeline so far.
    pub queries_submitted: u64,
    /// Queries that have completed (successfully or not).
    pub queries_completed: u64,
    /// How long submissions waited for a free pipeline slot.
    pub queue_wait: HistogramSnapshot,
    /// Physical frames sent since the last `take()` on the metrics.
    pub frames_sent: u64,
    /// Logical messages carried by those frames.
    pub logical_messages: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Frames retransmitted by the reliability layer (lossy networks).
    pub retransmissions: u64,
    /// Duplicate frames re-acknowledged by the reliability layer.
    pub re_acks: u64,
}

impl ServiceRuntime {
    /// Starts one long-lived worker per node over a fresh `network`: all
    /// on the caller's thread for [`NetworkKind::InMemory`], one thread
    /// each otherwise.
    ///
    /// `locals[i]` is the database snapshot owned by `NodeId(i)` for the
    /// service's lifetime; `depth` is the maximum number of queries kept
    /// in flight on the ring at once (1 = no pipelining).
    ///
    /// # Errors
    ///
    /// - [`ProtocolError::TooFewNodes`] for fewer than three snapshots.
    /// - [`ProtocolError::InconsistentK`] if the snapshots disagree on k.
    /// - [`ProtocolError::InvalidService`] for a zero `depth`.
    /// - [`ProtocolError::Ring`] if the network cannot be built: a lossy
    ///   drop probability outside `[0, 1)`, or a chaos plan with a window
    ///   at or past [`DEFAULT_HEAL_BUDGET`](crate::DEFAULT_HEAL_BUDGET),
    ///   which the reliability layer could not heal.
    pub fn start(
        locals: &[TopKVector],
        network: NetworkKind,
        depth: usize,
    ) -> Result<ServiceRuntime, ProtocolError> {
        Self::start_traced(locals, network, depth, Recorder::disabled())
    }

    /// [`start`](Self::start) with telemetry: every worker spans each
    /// hop's receive, computations, encode and send, and a lossy or
    /// chaos worker its idle waits too, tagged with the
    /// scheduler-assigned query id. The recorder is shared by
    /// all workers and the scheduler; transcripts stay bit-identical to
    /// the untraced service.
    ///
    /// # Errors
    ///
    /// As for [`start`](Self::start).
    pub fn start_traced(
        locals: &[TopKVector],
        network: NetworkKind,
        depth: usize,
        recorder: Recorder,
    ) -> Result<ServiceRuntime, ProtocolError> {
        let wire = build_endpoints(
            &network,
            Self::validate(locals, depth)?,
            FAULT_SEED,
            &recorder,
        )?;
        Self::start_with_endpoints(locals, depth, wire, recorder)
    }

    /// Checks the depth and the snapshots; returns the ring size.
    fn validate(locals: &[TopKVector], depth: usize) -> Result<usize, ProtocolError> {
        if depth == 0 {
            return Err(ProtocolError::InvalidService {
                reason: "pipeline depth must be at least 1",
            });
        }
        let n = locals.len();
        if n < 3 {
            return Err(ProtocolError::TooFewNodes { got: n, minimum: 3 });
        }
        match k_mismatch(locals[0].k(), locals) {
            Some(error) => Err(error),
            None => Ok(n),
        }
    }

    fn start_with_endpoints(
        locals: &[TopKVector],
        depth: usize,
        (endpoints, metrics, drive): Wire,
        recorder: Recorder,
    ) -> Result<ServiceRuntime, ProtocolError> {
        let n = locals.len();
        let (report_tx, report_rx) = unbounded();
        let mut controls = Vec::with_capacity(n);
        let workers: Vec<ServiceWorker> = endpoints
            .into_iter()
            .enumerate()
            .map(|(i, endpoint)| {
                let (control_tx, control_rx) = unbounded();
                controls.push(control_tx);
                ServiceWorker::new(
                    NodeId::new(i),
                    Some(locals[i].clone()),
                    endpoint,
                    control_rx,
                    report_tx.clone(),
                    drive.drain_on_exit(),
                    recorder.clone(),
                )
            })
            .collect();
        let shell = match drive {
            // The scheduler assigns in-memory workers directly, so their
            // control channels hang up here.
            Drive::Fifo(queue) => Shell::Fifo(FifoRing { workers, queue }),
            Drive::Threads { .. } => {
                let wakers = workers.iter().map(|w| w.endpoint.waker()).collect();
                let handles = workers
                    .into_iter()
                    .enumerate()
                    .map(|(i, worker)| {
                        std::thread::Builder::new()
                            .name(format!("privtopk-svc-{i}"))
                            .spawn(move || run_threaded(worker, Vec::new()))
                            .map_err(|_| ProtocolError::WorkerFailed { position: i })
                    })
                    .collect::<Result<_, _>>()?;
                Shell::Threads {
                    controls,
                    wakers,
                    handles,
                }
            }
        };
        Ok(ServiceRuntime {
            n,
            k: locals[0].k(),
            depth,
            next_query: 0,
            in_flight: 0,
            shell,
            reports: report_rx,
            open: HashMap::new(),
            done: HashMap::new(),
            metrics,
            // Strictly longer than the workers' own deadline, so a hung
            // query surfaces as their timeout report, not ours.
            collect_timeout: RECV_TIMEOUT + RECV_TIMEOUT / 2,
            recorder,
            shared: Arc::new(SchedulerShared::default()),
            observer: None,
        })
    }

    /// Installs a [`QueryObserver`] notified of every subsequently
    /// submitted query's protocol coordinates (config, ring size,
    /// resolved rounds). Observation is strictly additive: transcripts
    /// and results are bit-identical with or without an observer.
    pub fn set_observer(&mut self, observer: Arc<dyn QueryObserver>) {
        self.observer = Some(observer);
    }

    /// Starts the service over [`LocalTopkSource`] backends instead of
    /// pre-extracted vectors: each node's local top-k snapshot is
    /// acquired here, at worker setup, so the standing ring answers
    /// every query from one consistent view per node while writes keep
    /// landing in the underlying stores.
    ///
    /// # Errors
    ///
    /// As [`start`](Self::start), plus [`ProtocolError::Domain`] if a
    /// source cannot produce an exact top-`k` vector.
    pub fn start_from_sources<S>(
        sources: &[S],
        k: usize,
        network: NetworkKind,
        depth: usize,
    ) -> Result<ServiceRuntime, ProtocolError>
    where
        S: LocalTopkSource,
    {
        Self::start_from_sources_traced(sources, k, network, depth, Recorder::disabled())
    }

    /// [`start_from_sources`](Self::start_from_sources) with telemetry.
    ///
    /// # Errors
    ///
    /// As [`start_from_sources`](Self::start_from_sources).
    pub fn start_from_sources_traced<S>(
        sources: &[S],
        k: usize,
        network: NetworkKind,
        depth: usize,
        recorder: Recorder,
    ) -> Result<ServiceRuntime, ProtocolError>
    where
        S: LocalTopkSource,
    {
        let locals = snapshot_sources(sources, k)?;
        Self::start_traced(&locals, network, depth, recorder)
    }

    /// Number of member nodes on the standing ring.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// Maximum number of queries kept in flight at once.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Cumulative wire counters for the service's lifetime (shared by
    /// all in-flight queries).
    #[must_use]
    pub fn metrics(&self) -> TransportMetrics {
        self.metrics.clone()
    }

    /// The recorder this service publishes telemetry into (disabled
    /// unless the service was started via
    /// [`start_traced`](Self::start_traced)).
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Takes a live snapshot of the service: pipeline occupancy, queue
    /// waits, and the shared wire counters — readable at any time,
    /// including while queries are in flight, without draining anything.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        self.stats_handle().stats()
    }

    /// A cloneable handle that reads the same stats from any thread —
    /// the live feed behind the service's metrics endpoint. Stays valid
    /// (final values frozen) after the runtime shuts down.
    #[must_use]
    pub fn stats_handle(&self) -> ServiceStatsHandle {
        ServiceStatsHandle {
            depth: self.depth,
            shared: Arc::clone(&self.shared),
            metrics: self.metrics.clone(),
        }
    }

    /// Submits one query, blocking only while the pipeline is full.
    ///
    /// Queries complete in ring order but may be collected in any
    /// order; results wait until their ticket is redeemed.
    ///
    /// # Errors
    ///
    /// Configuration errors as for
    /// [`run_distributed`](crate::distributed::run_distributed), or a
    /// transport error if the service has failed.
    pub fn submit(
        &mut self,
        config: &ProtocolConfig,
        seed: u64,
    ) -> Result<QueryTicket, ProtocolError> {
        let k_mismatch = (config.k() != self.k).then(|| ProtocolError::InconsistentK {
            expected: self.k,
            got: config.k(),
        });
        check_query(config, self.n, k_mismatch)?;
        // Only `submit` hands out ids, so the next one is this query's
        // however long it queues below.
        let query = self.next_query;
        let init = Arc::new(SlotInit::new(query, config, self.n, seed)?);
        // Feed the privacy accountant (or any other observer) the
        // query's protocol coordinates — configuration only, never the
        // seed, data or results.
        if let Some(observer) = &self.observer {
            observer.on_query(config, self.n, init.rounds);
        }
        let queued = Instant::now();
        while self.in_flight >= self.depth {
            self.pump_one()?;
        }
        self.shared.queue_wait.record_duration(queued.elapsed());
        self.next_query += 1;
        self.open
            .insert(query, (Arc::clone(&init), Vec::with_capacity(self.n)));
        match &mut self.shell {
            // Every worker opens its slot now; the starting node's first
            // frame waits in the FIFO for the next pump.
            Shell::Fifo(ring) => {
                for worker in &mut ring.workers {
                    worker.assign(&init);
                }
            }
            // The starting node's assignment goes last and only it is
            // woken: every other node reads its own when the query's
            // first frame, which only the starting node sends, reaches it.
            Shell::Threads {
                controls, wakers, ..
            } => {
                let start = init.topology.node_at_start().get();
                for position in (0..self.n).filter(|&i| i != start).chain([start]) {
                    controls[position]
                        .send(Arc::clone(&init))
                        .map_err(|_| ProtocolError::WorkerFailed { position })?;
                }
                wakers[start].wake();
            }
        }
        self.in_flight += 1;
        self.shared.queries_submitted.fetch_add(1, Ordering::AcqRel);
        self.shared.set_in_flight(self.in_flight);
        Ok(QueryTicket { query })
    }

    /// Blocks until `ticket`'s query has completed and returns its
    /// outcome.
    ///
    /// # Errors
    ///
    /// The query's own first error if it failed, or
    /// [`ProtocolError::InvalidService`] for a ticket already collected.
    pub fn collect(&mut self, ticket: QueryTicket) -> Result<ServiceOutcome, ProtocolError> {
        loop {
            if let Some(outcome) = self.done.remove(&ticket.query) {
                return outcome;
            }
            if !self.open.contains_key(&ticket.query) {
                return Err(ProtocolError::InvalidService {
                    reason: "unknown or already collected query ticket",
                });
            }
            self.pump_one()?;
        }
    }

    /// Submits and collects one query — the warm-path equivalent of
    /// [`run_distributed`](crate::distributed::run_distributed).
    ///
    /// # Errors
    ///
    /// As for [`submit`](Self::submit) and [`collect`](Self::collect).
    pub fn run(
        &mut self,
        config: &ProtocolConfig,
        seed: u64,
    ) -> Result<ServiceOutcome, ProtocolError> {
        let ticket = self.submit(config, seed)?;
        self.collect(ticket)
    }

    /// Runs a whole workload through the pipeline, returning outcomes in
    /// workload order.
    ///
    /// # Errors
    ///
    /// The first submission or per-query error encountered.
    pub fn run_workload(
        &mut self,
        queries: &[(ProtocolConfig, u64)],
    ) -> Result<Vec<ServiceOutcome>, ProtocolError> {
        let mut tickets = Vec::with_capacity(queries.len());
        for (config, seed) in queries {
            tickets.push(self.submit(config, *seed)?);
        }
        tickets
            .into_iter()
            .map(|ticket| self.collect(ticket))
            .collect()
    }

    /// Folds one worker report into the bookkeeping: in memory, once
    /// delivering frames has filed one; over threads, once one arrives.
    fn pump_one(&mut self) -> Result<(), ProtocolError> {
        let timeout = || ProtocolError::Ring(RingError::Timeout);
        let report = match &mut self.shell {
            Shell::Fifo(ring) => loop {
                if let Ok(report) = self.reports.try_recv() {
                    break report;
                }
                if !ring.deliver() {
                    // A stall has just failed every open slot.
                    break self.reports.try_recv().map_err(|_| timeout())?;
                }
            },
            Shell::Threads { .. } => self
                .reports
                .recv_timeout(self.collect_timeout)
                .map_err(|_| timeout())?,
        };
        self.absorb(report);
        Ok(())
    }

    fn absorb(&mut self, report: SlotReport) {
        // No open entry: a straggler for a query that already failed, whose
        // first error decided the outcome.
        let Some((init, reports)) = self.open.get_mut(&report.query) else {
            return;
        };
        let outcome = match report.result {
            Ok((steps, result)) => {
                reports.push(WorkerReport {
                    node: report.node,
                    steps,
                    result,
                });
                if reports.len() < self.n {
                    return;
                }
                Ok(assemble(init, std::mem::take(reports)))
            }
            Err(error) => Err(error),
        };
        self.open.remove(&report.query);
        self.done.insert(report.query, outcome);
        self.in_flight -= 1;
        self.shared.queries_completed.fetch_add(1, Ordering::AcqRel);
        self.shared.set_in_flight(self.in_flight);
    }

    /// Shuts the service down and drops the runtime; uncollected results
    /// are discarded. An in-memory ring's workers go with it, in-flight
    /// queries and all. Over other networks every worker thread finishes
    /// its in-flight queries and exits, and this joins them.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WorkerFailed`] if a worker thread panicked.
    pub fn shutdown(mut self) -> Result<(), ProtocolError> {
        // Publish the lifetime wire counters into the recorder's
        // registry so a final summary carries them.
        self.metrics.peek().publish(&self.recorder);
        let handles = match &mut self.shell {
            Shell::Fifo(_) => Vec::new(),
            Shell::Threads { handles, .. } => std::mem::take(handles),
        };
        drop(self);
        let mut first_error = None;
        for (position, handle) in handles.into_iter().enumerate() {
            if handle.join().is_err() {
                first_error.get_or_insert(ProtocolError::WorkerFailed { position });
            }
        }
        match first_error {
            Some(error) => Err(error),
            None => Ok(()),
        }
    }
}

impl Drop for ServiceRuntime {
    /// Over threads, hangs up every worker's assignment queue, then wakes
    /// the worker to read the hang-up; each exits once its in-flight
    /// queries finish. An in-memory ring's workers are dropped with the
    /// runtime.
    fn drop(&mut self) {
        if let Shell::Threads {
            controls, wakers, ..
        } = &mut self.shell
        {
            controls.clear();
            for waker in wakers.iter() {
                waker.wake();
            }
        }
    }
}

/// Acquires one consistent local top-k snapshot per source — the bridge
/// from [`LocalTopkSource`] backends to the vector-based service
/// constructors.
fn snapshot_sources<S>(sources: &[S], k: usize) -> Result<Vec<TopKVector>, ProtocolError>
where
    S: LocalTopkSource,
{
    sources
        .iter()
        .map(|s| s.local_topk(k).map_err(ProtocolError::from))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::run_distributed;
    use crate::{RoundPolicy, Schedule, SlotMessage, StartPolicy, TokenMessage};
    use privtopk_domain::{Value, ValueDomain};

    fn locals(n: usize, k: usize, seed: u64) -> Vec<TopKVector> {
        use rand::Rng;
        let domain = ValueDomain::paper_default();
        let mut rng = privtopk_domain::rng::SeedSpec::new(seed).rng();
        (0..n)
            .map(|_| {
                let values: Vec<Value> = (0..k)
                    .map(|_| Value::new(rng.gen_range(domain.as_range())))
                    .collect();
                TopKVector::from_values(k, values, &domain).unwrap()
            })
            .collect()
    }

    fn config(k: usize) -> ProtocolConfig {
        ProtocolConfig::topk(k)
            .with_schedule(Schedule::paper_default())
            .with_rounds(RoundPolicy::Fixed(6))
    }

    struct VecSource {
        values: Vec<Value>,
        domain: ValueDomain,
    }

    impl LocalTopkSource for VecSource {
        fn local_topk(&self, k: usize) -> Result<TopKVector, privtopk_domain::DomainError> {
            TopKVector::from_values(k, self.values.iter().copied(), &self.domain)
        }

        fn row_count(&self) -> u64 {
            self.values.len() as u64
        }
    }

    #[test]
    fn source_backed_service_matches_vector_backed() {
        let locals = locals(4, 3, 21);
        let sources: Vec<VecSource> = locals
            .iter()
            .map(|v| VecSource {
                values: v.as_slice().to_vec(),
                domain: ValueDomain::paper_default(),
            })
            .collect();
        let cfg = config(3);
        let mut from_vectors = ServiceRuntime::start(&locals, NetworkKind::InMemory, 1).unwrap();
        let mut from_sources =
            ServiceRuntime::start_from_sources(&sources, 3, NetworkKind::InMemory, 1).unwrap();
        assert_eq!(from_sources.nodes(), 4);
        for seed in 0..4u64 {
            let a = from_vectors.run(&cfg, seed).unwrap();
            let b = from_sources.run(&cfg, seed).unwrap();
            assert_eq!(a, b, "seed {seed}");
        }
        from_vectors.shutdown().unwrap();
        from_sources.shutdown().unwrap();
    }

    #[test]
    fn source_backed_service_rejects_zero_k() {
        let sources: Vec<VecSource> = (0..3)
            .map(|_| VecSource {
                values: vec![Value::new(5)],
                domain: ValueDomain::paper_default(),
            })
            .collect();
        assert!(matches!(
            ServiceRuntime::start_from_sources(&sources, 0, NetworkKind::InMemory, 1),
            Err(ProtocolError::Domain(_))
        ));
    }

    #[test]
    fn single_query_matches_cold_run() {
        let locals = locals(5, 3, 11);
        let cfg = config(3);
        let cold = run_distributed(&cfg, &locals, NetworkKind::InMemory, 42).unwrap();
        let mut service = ServiceRuntime::start(&locals, NetworkKind::InMemory, 1).unwrap();
        let warm = service.run(&cfg, 42).unwrap();
        service.shutdown().unwrap();
        assert_eq!(warm.transcript, cold.transcript);
        assert_eq!(warm.per_node_results, cold.per_node_results);
    }

    #[test]
    fn sequential_reuse_matches_cold_runs() {
        let locals = locals(4, 2, 7);
        let cfg = config(2);
        let mut service = ServiceRuntime::start(&locals, NetworkKind::InMemory, 1).unwrap();
        for seed in 0..20u64 {
            let cold = run_distributed(&cfg, &locals, NetworkKind::InMemory, seed).unwrap();
            let warm = service.run(&cfg, seed).unwrap();
            assert_eq!(warm.transcript, cold.transcript, "seed {seed}");
        }
        service.shutdown().unwrap();
    }

    #[test]
    fn pipelined_depths_match_solo_transcripts() {
        let locals = locals(5, 3, 3);
        let cfg = config(3);
        let workload: Vec<(ProtocolConfig, u64)> =
            (0..24u64).map(|seed| (cfg.clone(), seed)).collect();
        let solo: Vec<Transcript> = workload
            .iter()
            .map(|(cfg, seed)| {
                run_distributed(cfg, &locals, NetworkKind::InMemory, *seed)
                    .unwrap()
                    .transcript
            })
            .collect();
        for depth in [1usize, 4, 16] {
            let mut service = ServiceRuntime::start(&locals, NetworkKind::InMemory, depth).unwrap();
            let outcomes = service.run_workload(&workload).unwrap();
            service.shutdown().unwrap();
            for (i, outcome) in outcomes.iter().enumerate() {
                assert_eq!(outcome.transcript, solo[i], "depth {depth}, query {i}");
            }
        }
    }

    #[test]
    fn random_anonymous_topologies_per_query() {
        // Every query derives its own ring from its seed, exactly as the
        // one-shot driver does.
        let locals = locals(6, 2, 9);
        let cfg = config(2).with_start(StartPolicy::RandomAnonymous);
        let mut service = ServiceRuntime::start(&locals, NetworkKind::InMemory, 4).unwrap();
        let workload: Vec<(ProtocolConfig, u64)> =
            (100..112u64).map(|seed| (cfg.clone(), seed)).collect();
        let outcomes = service.run_workload(&workload).unwrap();
        service.shutdown().unwrap();
        for ((_, seed), outcome) in workload.iter().zip(&outcomes) {
            let cold = run_distributed(&cfg, &locals, NetworkKind::InMemory, *seed).unwrap();
            assert_eq!(outcome.transcript, cold.transcript);
        }
    }

    #[test]
    fn tcp_service_reuses_connections() {
        let locals = locals(3, 2, 5);
        let cfg = config(2);
        let mut service = ServiceRuntime::start(&locals, NetworkKind::Tcp, 2).unwrap();
        let workload: Vec<(ProtocolConfig, u64)> =
            (0..6u64).map(|seed| (cfg.clone(), seed)).collect();
        let outcomes = service.run_workload(&workload).unwrap();
        service.shutdown().unwrap();
        for ((_, seed), outcome) in workload.iter().zip(&outcomes) {
            let cold = run_distributed(&cfg, &locals, NetworkKind::InMemory, *seed).unwrap();
            assert_eq!(outcome.transcript, cold.transcript);
        }
    }

    #[test]
    fn lossy_service_heals_and_stays_deterministic() {
        let locals = locals(4, 2, 13);
        let cfg = config(2);
        let network = NetworkKind::LossyInMemory {
            drop_probability: 0.2,
        };
        let mut service = ServiceRuntime::start(&locals, network, 2).unwrap();
        let workload: Vec<(ProtocolConfig, u64)> =
            (0..4u64).map(|seed| (cfg.clone(), seed)).collect();
        let outcomes = service.run_workload(&workload).unwrap();
        service.shutdown().unwrap();
        for ((_, seed), outcome) in workload.iter().zip(&outcomes) {
            let cold = run_distributed(&cfg, &locals, NetworkKind::InMemory, *seed).unwrap();
            assert_eq!(outcome.transcript, cold.transcript);
        }
    }

    #[test]
    fn out_of_order_collection() {
        let locals = locals(4, 2, 21);
        let cfg = config(2);
        let mut service = ServiceRuntime::start(&locals, NetworkKind::InMemory, 4).unwrap();
        let t0 = service.submit(&cfg, 0).unwrap();
        let t1 = service.submit(&cfg, 1).unwrap();
        let t2 = service.submit(&cfg, 2).unwrap();
        let o2 = service.collect(t2).unwrap();
        let o0 = service.collect(t0).unwrap();
        let o1 = service.collect(t1).unwrap();
        service.shutdown().unwrap();
        for (seed, outcome) in [(0u64, &o0), (1, &o1), (2, &o2)] {
            let cold = run_distributed(&cfg, &locals, NetworkKind::InMemory, seed).unwrap();
            assert_eq!(outcome.transcript, cold.transcript);
        }
    }

    #[test]
    fn double_collect_rejected() {
        let locals = locals(3, 1, 2);
        let cfg = ProtocolConfig::max()
            .with_schedule(Schedule::paper_default())
            .with_rounds(RoundPolicy::Fixed(3));
        let mut service = ServiceRuntime::start(&locals, NetworkKind::InMemory, 1).unwrap();
        let ticket = service.submit(&cfg, 0).unwrap();
        service.collect(ticket).unwrap();
        assert!(matches!(
            service.collect(ticket),
            Err(ProtocolError::InvalidService { .. })
        ));
        service.shutdown().unwrap();
    }

    #[test]
    fn start_validation() {
        let two = locals(2, 2, 1);
        assert!(matches!(
            ServiceRuntime::start(&two, NetworkKind::InMemory, 1),
            Err(ProtocolError::TooFewNodes { got: 2, .. })
        ));
        let four = locals(4, 2, 1);
        assert!(matches!(
            ServiceRuntime::start(&four, NetworkKind::InMemory, 0),
            Err(ProtocolError::InvalidService { .. })
        ));
        let mut mixed = locals(4, 2, 1);
        mixed[2] = locals(1, 3, 8).pop().unwrap();
        assert!(matches!(
            ServiceRuntime::start(&mixed, NetworkKind::InMemory, 1),
            Err(ProtocolError::InconsistentK { .. })
        ));
    }

    #[test]
    fn submit_validation() {
        let locals = locals(4, 2, 1);
        let mut service = ServiceRuntime::start(&locals, NetworkKind::InMemory, 1).unwrap();
        assert!(matches!(
            service.submit(&config(3), 0),
            Err(ProtocolError::InconsistentK {
                expected: 2,
                got: 3
            })
        ));
        let remapped = config(2).with_remap_each_round(true);
        assert!(service.submit(&remapped, 0).is_err());
        // The service is still usable after rejected submissions.
        service.run(&config(2), 0).unwrap();
        service.shutdown().unwrap();
    }

    #[test]
    fn traced_service_is_bit_identical_and_spans_every_hop() {
        let locals = locals(4, 2, 19);
        let cfg = config(2);
        let workload: Vec<(ProtocolConfig, u64)> =
            (0..6u64).map(|seed| (cfg.clone(), seed)).collect();

        let mut plain = ServiceRuntime::start(&locals, NetworkKind::InMemory, 2).unwrap();
        let plain_outcomes = plain.run_workload(&workload).unwrap();
        plain.shutdown().unwrap();

        let recorder = Recorder::new();
        let mut traced =
            ServiceRuntime::start_traced(&locals, NetworkKind::InMemory, 2, recorder.clone())
                .unwrap();
        let traced_outcomes = traced.run_workload(&workload).unwrap();
        let stats = traced.stats();
        traced.shutdown().unwrap();

        assert_eq!(plain_outcomes, traced_outcomes);
        // Every hop of every query produced a Step span: 6 queries of
        // 6 rounds over 4 nodes.
        assert_eq!(recorder.phase(Phase::Step).count, 6 * 6 * 4);
        assert!(recorder.phase(Phase::Send).count > 0);
        assert!(recorder.phase(Phase::Recv).count > 0);
        // The scheduler tracked occupancy and queue waits.
        assert_eq!(stats.queries_submitted, 6);
        assert_eq!(stats.queries_completed, 6);
        assert_eq!(stats.in_flight, 0);
        assert!(stats.pipeline_high_water >= 1 && stats.pipeline_high_water <= 2);
        assert_eq!(stats.queue_wait.count, 6);
        assert!(stats.frames_sent > 0);
        assert!(stats.bytes_sent > 0);
    }

    #[test]
    fn stats_are_live_mid_stream() {
        let locals = locals(4, 2, 23);
        let cfg = config(2);
        let mut service = ServiceRuntime::start(&locals, NetworkKind::InMemory, 4).unwrap();
        let t0 = service.submit(&cfg, 0).unwrap();
        let t1 = service.submit(&cfg, 1).unwrap();
        let mid = service.stats();
        assert_eq!(mid.queries_submitted, 2);
        assert_eq!(mid.in_flight + mid.queries_completed as usize, 2);
        assert!(mid.pipeline_high_water >= 1);
        service.collect(t0).unwrap();
        service.collect(t1).unwrap();
        let done = service.stats();
        assert_eq!(done.in_flight, 0);
        assert_eq!(done.queries_completed, 2);
        assert!(done.frames_sent >= mid.frames_sent);
        service.shutdown().unwrap();
    }

    #[test]
    fn lossy_service_stats_expose_healing_counters() {
        let locals = locals(4, 2, 29);
        let cfg = config(2);
        let network = NetworkKind::LossyInMemory {
            drop_probability: 0.3,
        };
        let recorder = Recorder::stats_only();
        let mut service =
            ServiceRuntime::start_traced(&locals, network, 2, recorder.clone()).unwrap();
        for seed in 0..3u64 {
            service.run(&cfg, seed).unwrap();
        }
        let stats = service.stats();
        assert!(
            stats.retransmissions > 0,
            "30% loss must force retransmissions"
        );
        assert!(stats.re_acks > 0, "dropped ACKs must force re-ACKs");
        assert_eq!(recorder.phase(Phase::Retry).count, stats.retransmissions);
        service.shutdown().unwrap();
    }

    #[test]
    fn shutdown_with_in_flight_queries_drains() {
        let locals = locals(4, 2, 17);
        let cfg = config(2);
        let mut service = ServiceRuntime::start(&locals, NetworkKind::InMemory, 8).unwrap();
        for seed in 0..8u64 {
            service.submit(&cfg, seed).unwrap();
        }
        // Never collected: shutdown must still drain and join cleanly.
        service.shutdown().unwrap();
    }

    /// Runs query 0 on a depth-1 service over n of the network's n + 1
    /// endpoints, has the spare endpoint send node 1 a well-formed frame
    /// for query `injected`, then times query 1. Returns that time, query
    /// 1's transcript and its cold run's. The ring runs on one FIFO, or
    /// with `threads` on one thread per node over channels.
    fn run_after_injecting(injected: u64, threads: bool) -> (Duration, Transcript, Transcript) {
        use privtopk_ring::transport::{FifoNetwork, InMemoryNetwork};
        use privtopk_ring::wire::encode_to_bytes;
        fn boxed<T: Transport + 'static>(endpoints: Vec<T>) -> Vec<Box<dyn Transport>> {
            endpoints
                .into_iter()
                .map(|e| Box::new(e) as Box<dyn Transport>)
                .collect()
        }
        let n = 4;
        let locals = locals(n, 2, 37);
        let cfg = config(2).with_start(StartPolicy::Fixed);
        let (mut endpoints, metrics, drive) = if threads {
            let net = InMemoryNetwork::new(n + 1);
            let drive = Drive::Threads {
                drain_on_exit: None,
            };
            let metrics = net.metrics();
            (boxed(net.endpoints()), metrics, drive)
        } else {
            let net = FifoNetwork::new(n + 1);
            let (metrics, drive) = (net.metrics(), Drive::Fifo(net.queue()));
            (boxed(net.endpoints()), metrics, drive)
        };
        let mut injector = endpoints.pop().unwrap();
        let mut service = ServiceRuntime::start_with_endpoints(
            &locals,
            1,
            (endpoints, metrics, drive),
            Recorder::disabled(),
        )
        .unwrap();
        let first = service.run(&cfg, 0).unwrap();
        let frame = SlotMessage {
            query: injected,
            inner: TokenMessage::Token {
                round: 1,
                vector: first.transcript.result().clone(),
            },
        };
        injector
            .send(NodeId::new(1), encode_to_bytes(&frame))
            .unwrap();
        let started = Instant::now();
        let second = service.run(&cfg, 1).unwrap();
        let elapsed = started.elapsed();
        service.shutdown().unwrap();
        let cold = run_distributed(&cfg, &locals, NetworkKind::InMemory, 1).unwrap();
        (elapsed, second.transcript, cold.transcript)
    }

    #[test]
    fn stale_frame_for_a_closed_query_does_not_stall_the_ring() {
        // Every worker has closed query 0 when its frame reaches node 1.
        // Holding the frame would stall query 1 for the whole 30 s
        // receive deadline, so it must be dropped instead.
        for threads in [false, true] {
            let (elapsed, second, cold) = run_after_injecting(0, threads);
            assert!(
                elapsed < Duration::from_secs(5),
                "query 1 stalled behind the stale frame for {elapsed:?} (threads: {threads})"
            );
            assert_eq!(second, cold);
        }
    }

    #[test]
    fn frame_for_an_unassigned_query_does_not_stall_the_ring() {
        // Query 1,000 is never assigned: node 1 must drop its frame once
        // its queued assignments are read, not wait for one to come.
        for threads in [false, true] {
            let (elapsed, second, cold) = run_after_injecting(1_000, threads);
            assert!(
                elapsed < Duration::from_secs(5),
                "query 1 stalled behind the unassigned frame for {elapsed:?} (threads: {threads})"
            );
            assert_eq!(second, cold);
        }
    }

    #[test]
    fn fifo_ring_matches_tcp_and_the_engine() {
        // The identity and cost gate of the in-memory FIFO ring: at every
        // depth, 50 queries over memory and over TCP (one thread per
        // node) give the same outcomes, frames, logical messages and
        // bytes, at the paper's n*r + n - 1 frames per query, and every
        // transcript is the simulation engine's.
        let (n, rounds, queries) = (5u64, 6u64, 50u64);
        let locals = locals(n as usize, 3, 41);
        let cfg = config(3);
        let workload: Vec<(ProtocolConfig, u64)> = (0..queries)
            .map(|q| (cfg.clone(), crate::derive_batch_seed(41, q)))
            .collect();
        let engine = crate::SimulationEngine::new(cfg.clone());
        for depth in [1usize, 4, 16] {
            let mut runs = Vec::new();
            for network in [NetworkKind::InMemory, NetworkKind::Tcp] {
                let mut service = ServiceRuntime::start(&locals, network, depth).unwrap();
                let outcomes = service.run_workload(&workload).unwrap();
                let stats = service.stats();
                service.shutdown().unwrap();
                let wire = (stats.frames_sent, stats.logical_messages, stats.bytes_sent);
                runs.push((outcomes, wire));
            }
            let (memory, tcp) = (&runs[0], &runs[1]);
            assert_eq!(memory.0, tcp.0, "depth {depth}: outcomes");
            assert_eq!(memory.1, tcp.1, "depth {depth}: frames, messages, bytes");
            let frames = queries * (n * rounds + n - 1);
            assert_eq!(memory.1 .0, frames, "depth {depth}: frames");
            assert_eq!(memory.1 .1, frames, "depth {depth}: logical messages");
            for (outcome, (_, seed)) in memory.0.iter().zip(&workload) {
                let sim = engine.run(&locals, *seed).unwrap();
                assert_eq!(outcome.transcript, sim, "depth {depth}, seed {seed}");
            }
        }
    }

    #[test]
    fn a_frame_queued_while_the_worker_is_held_is_never_stranded() {
        // Four readers push bursts of frames into one worker at once, so
        // they keep finding it held. Whenever every push has returned, no
        // thread holds the worker, so a frame still queued then is
        // stranded: its reader left it to a holder that let go without
        // checking the queue again. An empty frame fails to decode, which
        // with no slot open is a cheap dispatch.
        use privtopk_ring::transport::FifoNetwork;
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        let endpoint = FifoNetwork::new(1).endpoints().pop().unwrap();
        let (reports, _) = unbounded();
        let worker = ServiceWorker::new(
            NodeId::new(0),
            None,
            Box::new(endpoint),
            unbounded().1,
            reports,
            None,
            Recorder::disabled(),
        );
        let pushed = Arc::new(PushedWorker {
            worker: Mutex::new(worker),
            queue: Mutex::default(),
        });
        let (readers, rounds, burst) = (4, 20_000, 2);
        let barrier = Arc::new(Barrier::new(readers));
        let stranded = Arc::new(AtomicBool::new(false));
        let threads: Vec<_> = (0..readers)
            .map(|_| {
                let (pushed, barrier) = (Arc::clone(&pushed), Arc::clone(&barrier));
                let stranded = Arc::clone(&stranded);
                std::thread::spawn(move || {
                    for _ in 0..rounds {
                        for _ in 0..burst {
                            pushed.push(NodeId::new(1), Bytes::new());
                        }
                        if barrier.wait().is_leader() && !pushed.queued().is_empty() {
                            stranded.store(true, Ordering::Relaxed);
                        }
                        barrier.wait();
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        assert!(!stranded.load(Ordering::Relaxed), "a frame was stranded");
        let total = (readers * rounds * burst) as u64;
        assert_eq!(pushed.lock().hops, total);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn an_idle_node_thread_sleeps_through_its_deadlines() {
        // A node thread whose receive deadline passes with no slot open
        // must start a new wait, not poll the expired one. This one idles
        // through fifteen 20 ms deadlines; polling would spend most of
        // that time on the CPU.
        use privtopk_ring::transport::FifoNetwork;
        let endpoint = FifoNetwork::new(1).endpoints().pop().unwrap();
        let (control_tx, control) = unbounded();
        let mut worker = ServiceWorker::new(
            NodeId::new(0),
            None,
            Box::new(endpoint),
            control,
            unbounded().0,
            None,
            Recorder::disabled(),
        );
        worker.recv_timeout = Duration::from_millis(20);
        let pushed = PushedWorker {
            worker: Mutex::new(worker),
            queue: Mutex::default(),
        };
        let (wake, inbox) = unbounded();
        let watcher = std::thread::spawn(move || {
            pushed.watch(inbox);
            // utime and stime, in clock ticks: fields 14 and 15, counted
            // from the state after the parenthesized command name (3).
            let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
            let fields: Vec<&str> = stat
                .rsplit(')')
                .next()
                .unwrap()
                .split_whitespace()
                .collect();
            fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
        });
        std::thread::sleep(Duration::from_millis(300));
        // Hang up, then wake it to read the hang-up: it drains and exits.
        drop(control_tx);
        wake.send((NodeId::new(0), Bytes::new())).unwrap();
        let ticks = watcher.join().unwrap();
        assert!(ticks < 10, "the idle node thread ran for {ticks} ticks");
    }

    #[test]
    fn one_shot_tcp_rings_open_every_slot_before_a_reader_dispatches() {
        // A reader that dispatched a frame at a node whose slots were not
        // open yet would drop it as stale, and the ring would stall for
        // its 30 s receive deadline. 300 one-shot rings of six nodes with
        // random starts (the default) must each finish well inside that,
        // with the engine's transcript.
        let locals = locals(6, 3, 43);
        let cfg = config(3);
        let engine = crate::SimulationEngine::new(cfg.clone());
        for run in 0..300u64 {
            let seed = crate::derive_batch_seed(43, run);
            let started = Instant::now();
            let out = run_distributed(&cfg, &locals, NetworkKind::Tcp, seed).unwrap();
            let elapsed = started.elapsed();
            assert!(
                elapsed < Duration::from_secs(5),
                "run {run} took {elapsed:?}"
            );
            assert_eq!(
                out.transcript,
                engine.run(&locals, seed).unwrap(),
                "run {run}"
            );
        }
    }

    #[test]
    fn a_deep_tcp_service_matches_the_engine_at_the_paper_frame_count() {
        // Sixteen queries in flight keep each worker busy, so its readers
        // often find it held and queue their frames. A holder that let go
        // without checking the queue again would strand a frame until
        // the worker's next event, or for good once the workload ends.
        let (n, rounds, queries) = (6u64, 6u64, 500u64);
        let locals = locals(n as usize, 3, 47);
        let cfg = config(3);
        let workload: Vec<(ProtocolConfig, u64)> = (0..queries)
            .map(|q| (cfg.clone(), crate::derive_batch_seed(47, q)))
            .collect();
        let mut service = ServiceRuntime::start(&locals, NetworkKind::Tcp, 16).unwrap();
        let outcomes = service.run_workload(&workload).unwrap();
        let stats = service.stats();
        service.shutdown().unwrap();
        assert_eq!(stats.frames_sent, queries * (n * rounds + n - 1));
        assert_eq!(stats.logical_messages, stats.frames_sent);
        let engine = crate::SimulationEngine::new(cfg);
        for (outcome, (_, seed)) in outcomes.iter().zip(&workload) {
            let sim = engine.run(&locals, *seed).unwrap();
            assert_eq!(outcome.transcript, sim, "seed {seed}");
        }
    }

    #[test]
    fn a_tcp_batch_of_several_groups_matches_its_solo_runs() {
        // Random starts split 24 jobs into lock-step groups by ring order,
        // every group in flight at once on one TCP ring, each at the
        // paper's n*r + n - 1 frames.
        let (n, rounds) = (5u64, 6u64);
        let locals = locals(n as usize, 2, 53);
        let cfg = config(2);
        let jobs: Vec<BatchJob> = (0..24u64)
            .map(|q| BatchJob::new(cfg.clone(), locals.clone(), crate::derive_batch_seed(53, q)))
            .collect();
        let batch = crate::distributed::run_distributed_batch(&jobs, NetworkKind::Tcp).unwrap();
        let groups = u64::from(batch.groups);
        assert!(groups > 1 && groups < 24, "{groups} groups");
        assert_eq!(batch.frames_sent, groups * (n * rounds + n - 1));
        assert_eq!(batch.logical_messages, 24 * (n * rounds + n - 1));
        for (i, job) in jobs.iter().enumerate() {
            let solo =
                run_distributed(&job.config, &job.locals, NetworkKind::InMemory, job.seed).unwrap();
            assert_eq!(batch.transcripts[i], solo.transcript, "job {i}");
            assert_eq!(batch.per_node_results[i], solo.per_node_results, "job {i}");
        }
    }
}
