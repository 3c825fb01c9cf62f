//! The [`OracleService`] front-end: one lifecycle API — submit, pump/drain,
//! wave, snapshot — over any [`SpannerOracle`] backend, with a concurrent
//! epoch-published core.
//!
//! The backends answer batches; a *service* has to decide what reaches
//! them, and on which threads. This module provides:
//!
//! * **A non-blocking request loop.** [`OracleService::submit`] never
//!   blocks on the backend: it coalesces the request into a pending group
//!   (a u64 fault-set fingerprint plus an exact check), charges a ticket
//!   slot from a free list, and returns a [`TicketId`].
//! * **One scheduler.** Every round and every wave barrier runs through one
//!   *step*: admit every queued group up to the next wave barrier and
//!   answer them as one backend batch, or apply the wave at the head of the
//!   queue. The step runs on the threads that wait for it —
//!   [`OracleService::wait`], [`OracleService::drain`] and
//!   [`OracleService::pump`] each step the queue themselves — plus the
//!   [`ServiceConfig::workers`] background threads, which run the same
//!   step. A waiter whose ticket is admitted by another thread's round
//!   sleeps until that round completes.
//! * **Epoch publication.** The backend lives behind a published
//!   `Mutex<Arc<O>>` slot. A round briefly locks the slot, clones the
//!   `Arc`, and answers with the state lock released, against that
//!   immutable epoch — concurrent waiters run concurrent rounds, and
//!   [`Snapshot::capture`] can run against a clone off the query path. A
//!   wave is an **epoch barrier**: the step that pops it waits until every
//!   in-flight round has completed, drops its own epoch handle, takes the
//!   slot exclusively (parking on a condvar that the last outstanding
//!   [`EpochHandle`] signals on drop), runs [`apply_wave`] in place, and
//!   publishes the repaired epoch by releasing the slot. Every request
//!   submitted before the wave is answered pre-wave, everything after
//!   against the repaired spanner.
//! * **One overload guard.** [`ServiceConfig::max_pending`] caps the queued
//!   tickets; a fresh question past the cap is shed at the door. Nothing
//!   that has been queued is ever shed.
//! * **Submit-time coalescing.** Duplicates of a pending
//!   `(u, v, kind, F)` attach their ticket to the existing group, so the
//!   backend sees each distinct question once and the submit path pays one
//!   fingerprint hash instead of a per-ticket allocation. The pending map
//!   is cleared at every wave submission, so a duplicate can never attach
//!   to a group on the other side of a barrier.
//!
//! A single thread driving a service with no background workers steps
//! rounds in a deterministic order — one round per run of queries between
//! barriers, one per barrier — so round counts repeat exactly. With several
//! driving threads, counts like [`ServiceMetrics::rounds`] become
//! scheduling-dependent, but the `service_vs_direct` differential suite
//! pins that every answered ticket stays **bit-identical** to a direct
//! [`answer_batch`] at worker counts 1, 2, and 8. Only the diagnostic
//! [`Answer::cache_hit`](crate::Answer::cache_hit) flag may differ for
//! coalesced duplicates.
//!
//! [`answer_batch`]: SpannerOracle::answer_batch
//! [`apply_wave`]: SpannerOracle::apply_wave
//! [`Snapshot::capture`]: crate::Snapshot::capture
//! [`ServiceMetrics::rounds`]: crate::ServiceMetrics

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ftspan::FaultSet;

use crate::churn::{ChurnConfig, WaveReport};
use crate::metrics::ServiceMetrics;
use crate::query::{Answer, Query, QueryKind};
use crate::replication::{JournalEntry, WaveJournal};
use crate::traits::SpannerOracle;

/// Builder-style configuration of an [`OracleService`].
///
/// `ServiceConfig::default()` is a pass-through front-end: no pending cap,
/// the default churn configuration, no background threads (rounds run on
/// the threads that wait for them). Every field has a consuming `with_*`
/// setter:
///
/// ```
/// use ftspan_oracle::ServiceConfig;
///
/// let config = ServiceConfig::default()
///     .with_max_pending(4096)
///     .with_workers(4);
/// assert_eq!(config.max_pending, 4096);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ServiceConfig {
    /// Cap on pending (queued, unadmitted) tickets; submissions past it
    /// are shed on arrival. `0` means unbounded. Waves are control plane
    /// and are never shed, and neither are exact duplicates of a query
    /// already pending — they join the existing group without spending a
    /// queue slot, so a flash crowd of one hot pair never sheds past its
    /// first arrival.
    pub max_pending: usize,
    /// Churn configuration used when a submitted wave is applied.
    pub churn: ChurnConfig,
    /// Background threads that run the same step as the waiting callers,
    /// spawned once by [`OracleService::new`]. `0` (the default) spawns
    /// none; callers of [`OracleService::wait`], [`OracleService::drain`]
    /// and [`OracleService::pump`] step the queue themselves either way.
    pub workers: usize,
}

impl ServiceConfig {
    /// Sets the pending-queue cap (`0` = unbounded).
    #[must_use]
    pub fn with_max_pending(mut self, max_pending: usize) -> Self {
        self.max_pending = max_pending;
        self
    }

    /// Sets the churn configuration applied to submitted waves.
    #[must_use]
    pub fn with_churn(mut self, churn: ChurnConfig) -> Self {
        self.churn = churn;
        self
    }

    /// Sets the background-thread count (see [`ServiceConfig::workers`]).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }
}

/// Handle to one submitted command; redeem it with
/// [`OracleService::state`], [`OracleService::answer`],
/// [`OracleService::wave_report`], or consume it with
/// [`OracleService::wait`]. Carries a generation unique to the issuing
/// service instance and slot incarnation (seeded per instance from a
/// process-wide counter), so a ticket retained across
/// [`OracleService::recycle`] or [`OracleService::wait`] — or redeemed
/// against a different service instance — can never silently alias
/// another request's slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TicketId {
    slot: usize,
    generation: u64,
}

impl TicketId {
    /// The ticket's slot index (stable until the slot is freed by
    /// [`OracleService::wait`] or [`OracleService::recycle`]).
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.slot
    }
}

/// Lifecycle of one submitted command.
#[derive(Clone, Debug)]
pub enum TicketState {
    /// Still queued, or in flight in a round.
    Pending,
    /// Answered by the backend.
    Answered(Answer),
    /// Shed on arrival because [`ServiceConfig::max_pending`] tickets were
    /// already queued. The request never reached the backend; resubmit if
    /// the answer is still wanted.
    Shed,
    /// A wave that has been applied, with its report.
    Waved(WaveReport),
}

/// What one [`OracleService::pump`] step did, or what
/// [`OracleService::drain`] counted since the last report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PumpOutcome {
    /// Tickets completed with an answer.
    pub answered: usize,
    /// Duplicate requests coalesced away before the backend call.
    pub coalesced: usize,
    /// Tickets shed on arrival (see [`ServiceConfig::max_pending`]). A
    /// step never sheds, so only [`OracleService::drain`] reports these.
    pub shed: usize,
    /// Waves applied.
    pub waves: usize,
}

/// Seeds each service's ticket generation space: the high 32 bits identify
/// the instance, the low 32 count its ticket allocations, so tickets
/// cannot cross service instances undetected.
static NEXT_SERVICE_GENERATION: AtomicU64 = AtomicU64::new(0);

const TICKET_MISMATCH: &str =
    "ticket was issued by another service instance or invalidated by OracleService::recycle";

/// Cumulative front-end counters (monotonic; survive
/// [`OracleService::recycle`]).
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    submitted: u64,
    answered: u64,
    coalesced: u64,
    shed: u64,
    waves: u64,
    rounds: u64,
    wave_recovery_micros: u64,
    last_wave_recovery_micros: u64,
}

/// Coalescing key: endpoints, kind, and the fault-set fingerprint mixed
/// into one well-distributed `u64`, stored in an identity-hashed map so
/// the submit hot path pays one multiply-xor mix instead of a SipHash
/// pass per request. A (astronomically unlikely) collision merely
/// forfeits coalescing for the colliding request — the hit path compares
/// endpoints, kind, and the full fault set exactly, so answers stay
/// correct regardless.
type CoalesceKey = u64;

/// Mixes a query's endpoints, kind, and fault fingerprint into a
/// [`CoalesceKey`]. The fingerprint is already well distributed; the
/// finalizer (SplitMix64's) spreads the endpoint/kind bits so the
/// identity-hashed map's low-bit bucketing stays uniform.
#[inline]
fn coalesce_key(query: &Query, fingerprint: u64) -> CoalesceKey {
    let endpoints = ((query.u.index() as u64) << 32) | (query.v.index() as u64);
    let kind = match query.kind {
        QueryKind::Distance => 0u64,
        QueryKind::Path => 1u64,
    };
    let mut x = fingerprint ^ endpoints.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (kind << 63);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Identity hasher for the pre-mixed [`CoalesceKey`]: `write_u64` *is*
/// the hash. Other writes fold bytes in (never used by `u64` keys, but
/// kept total rather than panicking).
#[derive(Default)]
struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.0 = value;
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

type KeyHasherBuilder = std::hash::BuildHasherDefault<KeyHasher>;

/// One pending coalescing group: the distinct query plus every ticket
/// awaiting its answer. Freed groups keep their `tickets` allocation in
/// the slab's free list, so steady-state submission is allocation-light.
#[derive(Debug)]
struct Group {
    query: Option<Query>,
    tickets: Vec<TicketId>,
    key: CoalesceKey,
}

#[derive(Debug)]
enum Entry {
    Group(usize),
    Wave { slot: usize, wave: FaultSet },
}

#[derive(Debug)]
struct TicketSlot {
    generation: u64,
    state: TicketState,
}

#[derive(Debug)]
struct CoreState {
    queue: VecDeque<Entry>,
    groups: Vec<Group>,
    free_groups: Vec<usize>,
    /// Pending-group index for submit-time coalescing. Cleared at every
    /// wave submission so groups never straddle a barrier.
    pending_map: HashMap<CoalesceKey, usize, KeyHasherBuilder>,
    slots: Vec<TicketSlot>,
    free_slots: Vec<usize>,
    next_generation: u64,
    /// Tickets queued and not yet admitted (what [`OracleService::pending`]
    /// reports); waves count as one each.
    pending_tickets: usize,
    /// Tickets admitted into rounds that have not completed yet. A wave
    /// barrier fires only when this is zero.
    in_flight: usize,
    /// Set while the wave writer holds (or is acquiring) the epoch slot;
    /// no round may start until the repaired epoch is published.
    wave_in_progress: bool,
    counters: Counters,
    /// Counter values already handed back through a `pump`/`drain`
    /// outcome; `drain` reports the delta since this mark.
    reported: Counters,
}

impl CoreState {
    fn alloc_slot(&mut self, state: TicketState) -> TicketId {
        self.next_generation += 1;
        let generation = self.next_generation;
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.slots[slot] = TicketSlot { generation, state };
                slot
            }
            None => {
                self.slots.push(TicketSlot { generation, state });
                self.slots.len() - 1
            }
        };
        TicketId { slot, generation }
    }

    /// Frees a resolved slot for reuse, invalidating its current ticket.
    fn free_slot(&mut self, slot: usize) {
        self.next_generation += 1;
        self.slots[slot].generation = self.next_generation;
        self.slots[slot].state = TicketState::Pending;
        self.free_slots.push(slot);
    }

    fn alloc_group(&mut self, query: Query, key: CoalesceKey) -> usize {
        match self.free_groups.pop() {
            Some(id) => {
                let group = &mut self.groups[id];
                debug_assert!(group.tickets.is_empty(), "freed group kept tickets");
                group.query = Some(query);
                group.key = key;
                id
            }
            None => {
                self.groups.push(Group {
                    query: Some(query),
                    tickets: Vec::new(),
                    key,
                });
                self.groups.len() - 1
            }
        }
    }

    /// Returns a group's (cleared) ticket buffer to the slab.
    fn free_group(&mut self, id: usize, mut tickets: Vec<TicketId>) {
        tickets.clear();
        self.groups[id].tickets = tickets;
        self.groups[id].query = None;
        self.free_groups.push(id);
    }

    /// Drops a group's pending-map entry if it still points at the group
    /// (a wave submission may have cleared the map already, or a colliding
    /// key may have replaced the entry).
    fn unindex_group(&mut self, id: usize) {
        if self.pending_map.get(&self.groups[id].key) == Some(&id) {
            self.pending_map.remove(&self.groups[id].key);
        }
    }

    fn slot_of(&self, ticket: TicketId) -> &TicketSlot {
        let slot = self.slots.get(ticket.slot);
        assert!(
            slot.is_some_and(|s| s.generation == ticket.generation),
            "{TICKET_MISMATCH}"
        );
        slot.expect("checked above")
    }
}

struct Core<O: SpannerOracle> {
    config: ServiceConfig,
    /// The published epoch slot. Rounds lock it only long enough to clone
    /// the `Arc`; the wave writer holds it for the whole `apply_wave`, so
    /// releasing the guard *is* publication.
    epoch: Mutex<Arc<O>>,
    /// Wave-writer parking lot: dropping the last [`EpochHandle`] while
    /// `barrier.parked` is set wakes the writer waiting for slot
    /// exclusivity.
    barrier: Arc<WaveBarrier>,
    state: Mutex<CoreState>,
    /// Signaled on submission, round completion, and wave publication.
    cv: Condvar,
    /// `Some` once journaling is enabled. Locked only on the wave path and
    /// in [`OracleService::enable_journal`], always **after** the epoch
    /// slot (never the reverse) so the two can't deadlock.
    journal: Mutex<Option<Arc<ServiceJournal>>>,
    shutdown: AtomicBool,
}

impl<O: SpannerOracle> Core<O> {
    fn lock_state(&self) -> std::sync::MutexGuard<'_, CoreState> {
        self.state.lock().expect("service state poisoned")
    }
}

/// The live, observable [`WaveJournal`] of a serving primary.
///
/// The wave writer appends the committed entry **while still holding the
/// epoch slot** — releasing the slot is what publishes the epoch — so no
/// reader can ever observe an epoch whose journal entry is missing.
/// Followers consume it with [`ServiceJournal::entries_since`] (catch-up)
/// and [`ServiceJournal::wait_past`] (tailing); both hand out clones, so
/// consumers never hold the journal lock while replaying.
#[derive(Debug)]
pub struct ServiceJournal {
    state: Mutex<WaveJournal>,
    /// Signaled after each appended entry's epoch has been published.
    cv: Condvar,
}

impl ServiceJournal {
    fn new(base_epoch: u64) -> Self {
        Self {
            state: Mutex::new(WaveJournal::new(base_epoch)),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WaveJournal> {
        self.state.lock().expect("wave journal poisoned")
    }

    /// The epoch the journal starts after (see [`WaveJournal::base_epoch`]).
    #[must_use]
    pub fn base_epoch(&self) -> u64 {
        self.lock().base_epoch()
    }

    /// The epoch of the newest journaled wave.
    #[must_use]
    pub fn head_epoch(&self) -> u64 {
        self.lock().head_epoch()
    }

    /// Number of journaled waves.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when no wave has been journaled yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Clones out every entry past `epoch`, oldest first — or `None` when
    /// `epoch` predates the base (the follower must re-bootstrap from a
    /// fresh snapshot instead).
    #[must_use]
    pub fn entries_since(&self, epoch: u64) -> Option<Vec<JournalEntry>> {
        self.lock()
            .entries_since(epoch)
            .map(<[JournalEntry]>::to_vec)
    }

    /// Blocks until at least one entry past `epoch` exists, then returns
    /// every such entry; an empty vec means `timeout` elapsed first. The
    /// caller's `epoch` must be at or past [`ServiceJournal::base_epoch`].
    #[must_use]
    pub fn wait_past(&self, epoch: u64, timeout: Duration) -> Vec<JournalEntry> {
        let deadline = Instant::now() + timeout;
        let mut guard = self.lock();
        loop {
            if guard.head_epoch() > epoch {
                return guard
                    .entries_since(epoch)
                    .map(<[JournalEntry]>::to_vec)
                    .unwrap_or_default();
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return Vec::new();
            };
            guard = self
                .cv
                .wait_timeout(guard, remaining)
                .expect("wave journal poisoned")
                .0;
        }
    }

    /// Wave-writer side: called while the epoch slot is held, so appends
    /// are serialized and epoch-continuous by construction.
    fn append(&self, entry: JournalEntry) {
        self.lock()
            .append(entry)
            .expect("wave writer broke journal epoch continuity");
    }

    /// Wakes [`ServiceJournal::wait_past`] tails; called after publication.
    fn notify(&self) {
        self.cv.notify_all();
    }
}

/// Where the wave writer sleeps while epoch handles are outstanding.
///
/// Shared (by `Arc`) between [`Core`] and every [`EpochHandle`] so a
/// handle can outlive the service and still notify safely.
#[derive(Debug, Default)]
struct WaveBarrier {
    /// Set (`SeqCst`) by the wave writer before it parks; checked by
    /// [`EpochHandle::drop`] so the query path pays one relaxed-free
    /// atomic load and no lock when no wave is waiting.
    parked: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

/// A read handle to one published epoch of a service's backend, returned
/// by [`OracleService::oracle`]. Dereferences to the backend.
///
/// The handle pins its epoch: a wave barrier cannot publish until every
/// outstanding handle drops. Dropping the handle signals a parked wave
/// writer, so the barrier wakes promptly instead of busy-polling.
pub struct EpochHandle<O: SpannerOracle> {
    /// `Some` until `drop`; taken first so the strong count falls
    /// *before* the writer is notified.
    inner: Option<Arc<O>>,
    barrier: Arc<WaveBarrier>,
}

impl<O: SpannerOracle> EpochHandle<O> {
    fn acquire(core: &Core<O>) -> Self {
        Self {
            inner: Some(Arc::clone(&core.epoch.lock().expect("epoch slot poisoned"))),
            barrier: Arc::clone(&core.barrier),
        }
    }
}

impl<O: SpannerOracle> std::ops::Deref for EpochHandle<O> {
    type Target = O;

    fn deref(&self) -> &O {
        self.inner.as_ref().expect("epoch handle used after drop")
    }
}

impl<O: SpannerOracle> Clone for EpochHandle<O> {
    /// Clones pin the **same** epoch as the original, even if a wave has
    /// published a newer one in the meantime.
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
            barrier: Arc::clone(&self.barrier),
        }
    }
}

impl<O: SpannerOracle> Drop for EpochHandle<O> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if self.barrier.parked.load(Ordering::SeqCst) {
            // Taking the lock orders this notify after the writer's
            // park (or lets the writer observe the dropped count on its
            // pre-wait re-check); without it the wakeup could race into
            // the gap between the writer's check and its wait.
            let _guard = self.barrier.lock.lock().expect("wave barrier poisoned");
            self.barrier.cv.notify_all();
        }
    }
}

impl<O: SpannerOracle> fmt::Debug for EpochHandle<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochHandle")
            .field("alive", &self.inner.is_some())
            .finish_non_exhaustive()
    }
}

/// One admitted round: the slab ids of its groups, their queries (moved
/// out of the slab, in the same order) and how many tickets they carry.
struct Round {
    group_ids: Vec<usize>,
    batch: Vec<Query>,
    tickets: usize,
}

/// The serving front-end over any [`SpannerOracle`] backend.
///
/// See the [module docs](crate::service) for the architecture (epoch
/// publication, the one scheduler, coalescing, wave barriers)
/// and the crate docs for an end-to-end example. All methods take `&self`;
/// the service is `Sync` and meant to be shared across submitting threads.
pub struct OracleService<O: SpannerOracle> {
    core: Arc<Core<O>>,
    workers: Vec<JoinHandle<()>>,
}

impl<O: SpannerOracle> fmt::Debug for OracleService<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OracleService")
            .field("config", &self.core.config)
            .finish_non_exhaustive()
    }
}

impl<O: SpannerOracle + 'static> OracleService<O> {
    /// Wraps a backend in a service front-end, spawning
    /// [`ServiceConfig::workers`] background threads (none by default).
    #[must_use]
    pub fn new(oracle: O, config: ServiceConfig) -> Self {
        let core = Arc::new(Core {
            config,
            epoch: Mutex::new(Arc::new(oracle)),
            barrier: Arc::new(WaveBarrier::default()),
            state: Mutex::new(CoreState {
                queue: VecDeque::new(),
                groups: Vec::new(),
                free_groups: Vec::new(),
                pending_map: HashMap::default(),
                slots: Vec::new(),
                free_slots: Vec::new(),
                next_generation: NEXT_SERVICE_GENERATION.fetch_add(1 << 32, Ordering::Relaxed),
                pending_tickets: 0,
                in_flight: 0,
                wave_in_progress: false,
                counters: Counters::default(),
                reported: Counters::default(),
            }),
            cv: Condvar::new(),
            journal: Mutex::new(None),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..core.config.workers)
            .map(|_| {
                let core = Arc::clone(&core);
                thread::Builder::new()
                    .name("ftspan-service".into())
                    .spawn(move || {
                        drive(&core, |_| {
                            core.shutdown.load(Ordering::SeqCst).then_some(())
                        })
                    })
                    .expect("spawn service worker thread")
            })
            .collect();
        Self { core, workers }
    }

    /// Turns on wave journaling, returning the live journal (idempotent —
    /// repeated calls return the same journal). The journal is based at
    /// the epoch published at the moment of the call: waves committed
    /// earlier are not in it, so enable journaling **before** serving
    /// waves when a follower must be able to catch up from your bootstrap
    /// snapshot.
    pub fn enable_journal(&self) -> Arc<ServiceJournal> {
        // Hold the epoch slot across the install so the base epoch and the
        // slot contents can't be split by a concurrent wave writer (which
        // reads the slot while holding the same lock).
        let guard = self.core.epoch.lock().expect("epoch slot poisoned");
        let base = guard.epoch();
        let mut slot = self.core.journal.lock().expect("journal slot poisoned");
        let journal = Arc::clone(slot.get_or_insert_with(|| Arc::new(ServiceJournal::new(base))));
        drop(slot);
        drop(guard);
        journal
    }

    /// The live wave journal, or `None` if journaling was never enabled.
    #[must_use]
    pub fn journal(&self) -> Option<Arc<ServiceJournal>> {
        self.core
            .journal
            .lock()
            .expect("journal slot poisoned")
            .clone()
    }

    /// A handle to the currently published epoch of the backend.
    ///
    /// The handle pins that epoch: a wave barrier cannot publish until
    /// every outstanding handle is dropped (dropping yours wakes a parked
    /// wave writer). Read what you need and drop it — in particular, do
    /// **not** hold one across [`OracleService::submit_wave`] +
    /// [`OracleService::drain`] or the wave will wait on you. Structural
    /// mutation is deliberately impossible through the handle: waves must
    /// go through the front door so the queue's barrier ordering stays
    /// truthful.
    #[must_use]
    pub fn oracle(&self) -> EpochHandle<O> {
        EpochHandle::acquire(&self.core)
    }

    /// Dissolves the front-end and returns the backend.
    ///
    /// # Panics
    ///
    /// Panics if epoch handles from [`OracleService::oracle`] are still
    /// outstanding.
    #[must_use]
    pub fn into_oracle(self) -> O {
        let core = Arc::clone(&self.core);
        drop(self); // joins the worker threads
        let Ok(core) = Arc::try_unwrap(core) else {
            panic!("cannot dissolve an OracleService while other handles to its core are alive")
        };
        let arc = core.epoch.into_inner().expect("epoch slot poisoned");
        let Ok(oracle) = Arc::try_unwrap(arc) else {
            panic!(
                "cannot dissolve an OracleService while epoch handles \
                 (OracleService::oracle) are outstanding"
            )
        };
        oracle
    }

    /// The configuration in force.
    #[inline]
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.core.config
    }

    /// Number of queued (not yet admitted) tickets.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.lock_state().pending_tickets
    }

    /// Submits one query; never blocks on the backend. If
    /// [`ServiceConfig::max_pending`] tickets are already queued, the
    /// ticket comes back already [`TicketState::Shed`]. An exact duplicate
    /// of a pending request attaches to the existing group instead of
    /// enqueueing a new command, even at the cap.
    pub fn submit(&self, query: Query) -> TicketId {
        let mut st = self.lock_state();
        let ticket = self.submit_locked(&mut st, query);
        drop(st);
        self.core.cv.notify_one();
        ticket
    }

    /// Submits a batch of queries under a single state-lock acquisition.
    /// Semantically identical to calling [`OracleService::submit`] once per
    /// query, but the whole batch lands contiguously in the queue (no
    /// round can start between two of its entries) and the submit path
    /// pays one lock round-trip instead of one per query.
    pub fn submit_batch(&self, queries: impl IntoIterator<Item = Query>) -> Vec<TicketId> {
        let mut st = self.lock_state();
        let tickets = queries
            .into_iter()
            .map(|query| self.submit_locked(&mut st, query))
            .collect();
        drop(st);
        self.core.cv.notify_all();
        tickets
    }

    /// [`OracleService::submit_batch`] over borrowed queries: a request
    /// that coalesces into a pending group (or sheds at the door) never
    /// clones its query — only the first submission of each distinct
    /// question pays the clone. On duplicate-heavy streams that removes
    /// most fault-set allocations from the submit path.
    pub fn submit_batch_ref<'a>(
        &self,
        queries: impl IntoIterator<Item = &'a Query>,
    ) -> Vec<TicketId> {
        let mut st = self.lock_state();
        let tickets = queries
            .into_iter()
            .map(|query| match self.admit_locked(&mut st, query) {
                Ok(ticket) => ticket,
                Err(key) => self.enqueue_group_locked(&mut st, query.clone(), key),
            })
            .collect();
        drop(st);
        self.core.cv.notify_all();
        tickets
    }

    fn submit_locked(&self, st: &mut CoreState, query: Query) -> TicketId {
        match self.admit_locked(st, &query) {
            Ok(ticket) => ticket,
            Err(key) => self.enqueue_group_locked(st, query, key),
        }
    }

    /// The coalesce / shed fast path shared by the owned and borrowed
    /// submit flavors: resolves the request to a ticket without taking
    /// ownership of the query, or returns the coalesce key for the caller
    /// to enqueue a new group under.
    fn admit_locked(&self, st: &mut CoreState, query: &Query) -> Result<TicketId, CoalesceKey> {
        st.counters.submitted += 1;
        let fingerprint = crate::cache::KeyRef::new(&query.faults).fingerprint();
        let key = coalesce_key(query, fingerprint);
        if let Some(&id) = st.pending_map.get(&key) {
            // The mixed key can (astronomically rarely) collide, so the
            // hit is confirmed against the pending query exactly.
            let exact = st.groups[id].query.as_ref().is_some_and(|pending| {
                pending.u == query.u
                    && pending.v == query.v
                    && pending.kind == query.kind
                    && pending.faults == query.faults
            });
            if exact {
                // Coalescing wins over the overload shed: a duplicate of a
                // pending group costs no queue slot and no extra backend
                // work, so a flash crowd of the same hot pair is absorbed
                // even when the queue is full.
                let ticket = st.alloc_slot(TicketState::Pending);
                st.groups[id].tickets.push(ticket);
                st.pending_tickets += 1;
                return Ok(ticket);
            }
        }
        let max_pending = self.core.config.max_pending;
        if max_pending > 0 && st.pending_tickets >= max_pending {
            st.counters.shed += 1;
            return Ok(st.alloc_slot(TicketState::Shed));
        }
        Err(key)
    }

    fn enqueue_group_locked(&self, st: &mut CoreState, query: Query, key: CoalesceKey) -> TicketId {
        let ticket = st.alloc_slot(TicketState::Pending);
        let id = st.alloc_group(query, key);
        st.groups[id].tickets.push(ticket);
        st.pending_map.insert(key, id);
        st.pending_tickets += 1;
        st.queue.push_back(Entry::Group(id));
        ticket
    }

    /// Submits a permanent fault wave through the same front door as
    /// queries. The wave is a FIFO barrier: it is applied only after every
    /// earlier command has been resolved and every in-flight round has
    /// completed, and everything submitted after it is answered against
    /// the repaired spanner. Waves are never shed.
    pub fn submit_wave(&self, wave: FaultSet) -> TicketId {
        let mut st = self.lock_state();
        let ticket = st.alloc_slot(TicketState::Pending);
        st.queue.push_back(Entry::Wave {
            slot: ticket.slot,
            wave,
        });
        // No pre-wave group may absorb a post-wave duplicate.
        st.pending_map.clear();
        st.pending_tickets += 1;
        drop(st);
        self.core.cv.notify_all();
        ticket
    }

    /// The state of a ticket (a snapshot; the slot stays live).
    ///
    /// # Panics
    ///
    /// Panics if the ticket was issued by another service instance or was
    /// invalidated by [`OracleService::recycle`] /
    /// [`OracleService::wait`] (the ticket's generation no longer matches
    /// its slot's).
    #[must_use]
    pub fn state(&self, ticket: TicketId) -> TicketState {
        self.lock_state().slot_of(ticket).state.clone()
    }

    /// The ticket's answer, if it has one ([`TicketState::Answered`]).
    #[must_use]
    pub fn answer(&self, ticket: TicketId) -> Option<Answer> {
        match self.state(ticket) {
            TicketState::Answered(answer) => Some(answer),
            _ => None,
        }
    }

    /// The ticket's wave report, if it was a wave and has been applied.
    #[must_use]
    pub fn wave_report(&self, ticket: TicketId) -> Option<WaveReport> {
        match self.state(ticket) {
            TicketState::Waved(report) => Some(report),
            _ => None,
        }
    }

    /// Blocks until the ticket resolves, returns its final state, and
    /// frees the slot for reuse (the ticket is *consumed*: redeeming it
    /// again panics like a recycled ticket). The calling thread steps the
    /// queue while a round or barrier can start, and sleeps while its
    /// ticket sits in another thread's round or behind a pending barrier.
    pub fn wait(&self, ticket: TicketId) -> TicketState {
        drive(&self.core, |st| {
            if matches!(st.slot_of(ticket).state, TicketState::Pending) {
                return None;
            }
            let state = std::mem::replace(&mut st.slots[ticket.slot].state, TicketState::Pending);
            st.free_slot(ticket.slot);
            Some(state)
        })
    }

    /// Runs one step on the calling thread: admit every queued group up to
    /// the next wave barrier, hand the backend **one** batch of distinct
    /// queries, and complete the tickets — or, when a wave barrier is at
    /// the head of the queue, apply that wave instead. So a burst queued
    /// ahead of a wave is one `pump`, the wave the next, and the burst
    /// behind it the one after. Returns what the step did; an empty
    /// outcome when nothing could start (an empty queue, or a barrier
    /// waiting on rounds in flight on other threads).
    pub fn pump(&self) -> PumpOutcome {
        let outcome = step(&self.core).unwrap_or_default();
        let mut st = self.lock_state();
        st.reported.answered += outcome.answered as u64;
        st.reported.coalesced += outcome.coalesced as u64;
        st.reported.waves += outcome.waves as u64;
        outcome
    }

    /// Blocks until every submitted command has resolved, stepping the
    /// queue on the calling thread meanwhile, and returns what the service
    /// counted since the last `pump`/`drain` report — arrival sheds
    /// included.
    pub fn drain(&self) -> PumpOutcome {
        drive(&self.core, |st| {
            if !(st.queue.is_empty() && st.in_flight == 0 && !st.wave_in_progress) {
                return None;
            }
            let delta = PumpOutcome {
                answered: (st.counters.answered - st.reported.answered) as usize,
                coalesced: (st.counters.coalesced - st.reported.coalesced) as usize,
                shed: (st.counters.shed - st.reported.shed) as usize,
                waves: (st.counters.waves - st.reported.waves) as usize,
            };
            st.reported = st.counters;
            Some(delta)
        })
    }

    /// The unified metrics view: the backend's
    /// [`SpannerOracle::service_metrics`] with the front-end counters
    /// (submitted / answered / coalesced / shed / rounds) filled in.
    #[must_use]
    pub fn metrics(&self) -> ServiceMetrics {
        let oracle = self.oracle();
        let mut metrics = oracle.service_metrics();
        drop(oracle);
        let st = self.lock_state();
        metrics.submitted = st.counters.submitted;
        metrics.answered = st.counters.answered;
        metrics.coalesced = st.counters.coalesced;
        metrics.shed = st.counters.shed;
        metrics.rounds = st.counters.rounds;
        metrics.wave_recovery_micros = st.counters.wave_recovery_micros;
        metrics.last_wave_recovery_micros = st.counters.last_wave_recovery_micros;
        metrics
    }

    /// The unified metrics rendered as Prometheus exposition text — the
    /// body the `ftspan-server` `METRICS` endpoint serves. Stable format;
    /// see [`ServiceMetrics::render_prometheus`].
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        self.metrics().render_prometheus()
    }

    /// Frees completed ticket storage. Only permitted when the service is
    /// quiescent (no queued or in-flight commands); every previously
    /// issued [`TicketId`] becomes invalid. Returns how many slots were
    /// freed (`0` when commands are pending).
    pub fn recycle(&self) -> usize {
        let mut st = self.lock_state();
        if st.pending_tickets > 0 || st.in_flight > 0 || st.wave_in_progress {
            return 0;
        }
        debug_assert!(st.queue.is_empty(), "quiescent service with queued work");
        debug_assert!(
            st.pending_map.is_empty(),
            "quiescent service with pending groups"
        );
        let freed = st.slots.len();
        st.slots.clear();
        st.free_slots.clear();
        freed
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, CoreState> {
        self.core.lock_state()
    }
}

impl<O: SpannerOracle> Drop for OracleService<O> {
    fn drop(&mut self) {
        {
            let _guard = self.core.state.lock();
            self.core.shutdown.store(true, Ordering::SeqCst);
            self.core.cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Whether a step could start right now.
fn actionable(st: &CoreState) -> bool {
    if st.wave_in_progress {
        return false;
    }
    match st.queue.front() {
        None => false,
        Some(Entry::Wave { .. }) => st.in_flight == 0,
        Some(Entry::Group(_)) => true,
    }
}

/// The one driver loop, shared by [`OracleService::wait`],
/// [`OracleService::drain`] and the background threads: until `done`
/// yields a result, step while a step could start and sleep on the state
/// condvar otherwise. Every state change that makes a step possible or
/// resolves a ticket notifies that condvar, so a sleeper cannot miss one.
fn drive<O: SpannerOracle, R>(
    core: &Core<O>,
    mut done: impl FnMut(&mut CoreState) -> Option<R>,
) -> R {
    let mut st = core.lock_state();
    loop {
        if let Some(result) = done(&mut st) {
            return result;
        }
        if actionable(&st) {
            drop(st);
            step(core);
            st = core.lock_state();
        } else {
            st = core.cv.wait(st).expect("service state poisoned");
        }
    }
}

/// Admission, under the state lock: admits `first` (already popped) and
/// every group queued behind it, up to the next wave barrier, which stays
/// at the head of the queue.
fn scan_round(st: &mut CoreState, first: usize) -> Round {
    let mut group_ids = vec![first];
    while let Some(&Entry::Group(id)) = st.queue.front() {
        st.queue.pop_front();
        group_ids.push(id);
    }
    let mut batch = Vec::with_capacity(group_ids.len());
    let mut tickets = 0;
    for &id in &group_ids {
        st.unindex_group(id);
        batch.push(st.groups[id].query.take().expect("queued group has query"));
        tickets += st.groups[id].tickets.len();
    }
    st.pending_tickets -= tickets;
    Round {
        group_ids,
        batch,
        tickets,
    }
}

/// The scheduler's one step, on whichever thread calls it: pin the
/// published epoch, then admit a round under the state lock and answer the
/// batch with the lock released, fanning answers out to every ticket — or,
/// when a wave barrier is at the head of the queue, drop the pin and apply
/// the wave. `None` when nothing could start (empty queue, or a barrier
/// pending).
fn step<O: SpannerOracle>(core: &Core<O>) -> Option<PumpOutcome> {
    // Pinned before the scan, so no wave can publish between the scan and
    // the answers: everything this round admits is answered at this epoch.
    let oracle = EpochHandle::acquire(core);
    let mut st = core.lock_state();
    if st.wave_in_progress {
        return None;
    }
    let first = match st.queue.pop_front()? {
        Entry::Group(id) => id,
        Entry::Wave { slot, wave } => {
            if st.in_flight > 0 {
                // Earlier rounds are still answering; put the barrier back
                // and let their completion wake a driver.
                st.queue.push_front(Entry::Wave { slot, wave });
                return None;
            }
            st.counters.rounds += 1;
            st.wave_in_progress = true;
            drop(st);
            // The barrier waits out every epoch handle, this one included.
            drop(oracle);
            apply_wave_barrier(core, slot, wave);
            return Some(PumpOutcome {
                waves: 1,
                ..PumpOutcome::default()
            });
        }
    };
    let round = scan_round(&mut st, first);
    st.counters.rounds += 1;
    st.in_flight += round.tickets;
    drop(st);

    // Backend phase: no service lock held. Readers in other rounds run
    // concurrently against their own epoch handles.
    let answers = oracle.answer_batch(&round.batch);
    debug_assert_eq!(answers.len(), round.batch.len());

    // Fan out: every ticket of a group receives the group's answer (the
    // last by move, the rest by clone).
    let mut st = core.lock_state();
    let mut answered = 0usize;
    let mut coalesced = 0usize;
    for (id, answer) in round.group_ids.into_iter().zip(answers) {
        let mut tickets = std::mem::take(&mut st.groups[id].tickets);
        answered += tickets.len();
        coalesced += tickets.len() - 1;
        let last = tickets.pop();
        for ticket in &tickets {
            st.slots[ticket.slot].state = TicketState::Answered(answer.clone());
        }
        if let Some(ticket) = last {
            st.slots[ticket.slot].state = TicketState::Answered(answer);
        }
        st.free_group(id, tickets);
    }
    st.counters.answered += answered as u64;
    st.counters.coalesced += coalesced as u64;
    st.in_flight -= round.tickets;
    drop(st);
    core.cv.notify_all();
    Some(PumpOutcome {
        answered,
        coalesced,
        ..PumpOutcome::default()
    })
}

/// The wave writer: takes the epoch slot exclusively (parking until every
/// outstanding epoch handle drops), applies the wave in place, and
/// publishes the repaired epoch by releasing the slot. The caller must
/// have popped the wave and set `wave_in_progress`, and must hold **no**
/// epoch handle.
fn apply_wave_barrier<O: SpannerOracle>(core: &Core<O>, slot: usize, wave: FaultSet) {
    let started = Instant::now();
    let mut guard = core.epoch.lock().expect("epoch slot poisoned");
    let report = loop {
        // In-flight rounds were drained before the barrier fired, so the
        // only handles left are `oracle()` reads / snapshot captures.
        if let Some(oracle) = Arc::get_mut(&mut guard) {
            break oracle.apply_wave(&wave, &core.config.churn);
        }
        core.barrier.parked.store(true, Ordering::SeqCst);
        // Re-check after raising the flag: a handle dropped in the gap saw
        // `parked == false` and will not notify, so sleeping now would
        // miss it. The short timeout below is the backstop for raw `Arc`
        // clones (e.g. of an `EpochHandle`'s inner) that bypass the
        // handle's drop notification entirely.
        if Arc::strong_count(&guard) > 1 {
            let parked = core.barrier.lock.lock().expect("wave barrier poisoned");
            let _unused = core
                .barrier
                .cv
                .wait_timeout(parked, Duration::from_millis(1))
                .expect("wave barrier poisoned");
        }
    };
    // Journal the committed wave while the slot is still held: releasing
    // the guard *is* publication, so readers can never observe an epoch
    // whose journal entry is missing.
    let journal = core.journal.lock().expect("journal slot poisoned").clone();
    if let Some(journal) = &journal {
        journal.append(JournalEntry {
            epoch: guard.epoch(),
            report_digest: report.digest(),
            wave,
        });
    }
    core.barrier.parked.store(false, Ordering::SeqCst);
    drop(guard); // publication
    if let Some(journal) = &journal {
        journal.notify();
    }

    let mut st = core.lock_state();
    st.slots[slot].state = TicketState::Waved(report);
    st.counters.waves += 1;
    // Recovery time as the operator experiences it: epoch-handle drain,
    // in-place repair, and publication, measured at the barrier itself
    // whichever thread applies it.
    let recovery = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    st.counters.wave_recovery_micros += recovery;
    st.counters.last_wave_recovery_micros = recovery;
    st.pending_tickets -= 1;
    st.wave_in_progress = false;
    drop(st);
    core.cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{FaultOracle, OracleOptions};
    use ftspan::{FaultModel, SpannerParams};
    use ftspan_graph::{generators, vid};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn backend(seed: u64) -> FaultOracle {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::connected_gnp(30, 0.25, &mut rng);
        FaultOracle::build(graph, SpannerParams::vertex(2, 1), OracleOptions::default())
    }

    fn queries(n: usize, vertices: usize, seed: u64) -> Vec<Query> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let u = vid(rng.gen_range(0..vertices));
                let mut v = vid(rng.gen_range(0..vertices));
                while v == u {
                    v = vid(rng.gen_range(0..vertices));
                }
                let faults = FaultSet::vertices([vid(rng.gen_range(0..4usize) + 20)]);
                if i % 3 == 0 {
                    Query::path(u, v, faults)
                } else {
                    Query::distance(u, v, faults)
                }
            })
            .collect()
    }

    #[test]
    fn submit_drain_answers_match_direct_batch() {
        let direct = backend(1);
        let service = OracleService::new(backend(1), ServiceConfig::default());
        let batch = queries(60, 30, 2);
        let expected = direct.answer_batch(&batch);
        let tickets: Vec<TicketId> = batch.iter().cloned().map(|q| service.submit(q)).collect();
        assert_eq!(service.pending(), 60);
        let outcome = service.drain();
        assert_eq!(outcome.answered, 60);
        assert_eq!(service.pending(), 0);
        for (ticket, want) in tickets.iter().zip(&expected) {
            let got = service.answer(*ticket).expect("drained tickets answered");
            assert_eq!(got.distance(), want.distance());
            assert_eq!(got.path(), want.path());
        }
    }

    #[test]
    fn duplicates_coalesce_to_one_backend_query() {
        let service = OracleService::new(backend(3), ServiceConfig::default());
        let faults = FaultSet::vertices([vid(7)]);
        let query = Query::distance(vid(0), vid(5), faults.clone());
        let tickets: Vec<TicketId> = (0..10).map(|_| service.submit(query.clone())).collect();
        // A distinct query in the same round must not be merged.
        let other = service.submit(Query::distance(vid(1), vid(5), faults));
        let outcome = service.pump();
        assert_eq!(outcome.answered, 11);
        assert_eq!(outcome.coalesced, 9);
        let metrics = service.metrics();
        assert_eq!(metrics.coalesced, 9);
        assert_eq!(metrics.submitted, 11);
        assert_eq!(
            metrics.queries, 2,
            "the backend must see each distinct question once"
        );
        let first = service.answer(tickets[0]).unwrap().distance();
        for t in &tickets {
            assert_eq!(service.answer(*t).unwrap().distance(), first);
        }
        assert!(service.answer(other).is_some());
    }

    #[test]
    fn full_queue_still_coalesces_duplicates() {
        let service = OracleService::new(backend(5), ServiceConfig::default().with_max_pending(2));
        let faults = FaultSet::empty(FaultModel::Vertex);
        let hot = Query::distance(vid(0), vid(5), faults.clone());
        let a = service.submit(hot.clone());
        let b = service.submit(Query::distance(vid(1), vid(6), faults.clone()));
        // The queue is now at capacity: a fresh question sheds at the
        // door, but duplicates of the hot pending pair still coalesce.
        let fresh = service.submit(Query::distance(vid(2), vid(7), faults.clone()));
        let dupes: Vec<TicketId> = (0..5).map(|_| service.submit(hot.clone())).collect();
        assert!(matches!(service.state(fresh), TicketState::Shed));
        let outcome = service.drain();
        assert_eq!(outcome.answered, 7);
        assert_eq!(outcome.coalesced, 5);
        let metrics = service.metrics();
        assert_eq!(metrics.shed, 1);
        assert_eq!(
            metrics.queries, 2,
            "the flash crowd must not cost extra backend work"
        );
        let first = service.answer(a).unwrap().distance();
        for t in &dupes {
            assert_eq!(service.answer(*t).unwrap().distance(), first);
        }
        assert!(service.answer(b).is_some());
    }

    #[test]
    fn coalescing_distinguishes_kind_and_faults() {
        let service = OracleService::new(backend(4), ServiceConfig::default());
        let f1 = FaultSet::vertices([vid(7)]);
        let f2 = FaultSet::vertices([vid(8)]);
        let d = service.submit(Query::distance(vid(0), vid(5), f1.clone()));
        let p = service.submit(Query::path(vid(0), vid(5), f1));
        let other = service.submit(Query::distance(vid(0), vid(5), f2));
        let outcome = service.pump();
        assert_eq!(outcome.coalesced, 0);
        assert!(service.answer(p).unwrap().path().is_some());
        assert!(service.answer(d).unwrap().path().is_none());
        assert!(service.answer(other).is_some());
    }

    #[test]
    fn coalescing_never_crosses_a_wave_barrier() {
        let service = OracleService::new(backend(6), ServiceConfig::default());
        let faults = FaultSet::empty(FaultModel::Vertex);
        let before = service.submit(Query::distance(vid(0), vid(9), faults.clone()));
        service.submit_wave(FaultSet::vertices([vid(4)]));
        let after = service.submit(Query::distance(vid(0), vid(9), faults));
        let outcome = service.drain();
        assert_eq!(outcome.answered, 2);
        assert_eq!(
            outcome.coalesced, 0,
            "a duplicate must never attach to a group across a barrier"
        );
        assert_eq!(
            service.metrics().queries,
            2,
            "each side of the barrier reaches the backend separately"
        );
        assert!(service.answer(before).is_some());
        assert!(service.answer(after).is_some());
    }

    #[test]
    fn wave_is_a_fifo_barrier() {
        let mut direct = backend(7);
        let service = OracleService::new(backend(7), ServiceConfig::default());
        let faults = FaultSet::empty(FaultModel::Vertex);
        let before = service.submit(Query::distance(vid(0), vid(9), faults.clone()));
        let wave = FaultSet::vertices([vid(4), vid(11)]);
        let wave_ticket = service.submit_wave(wave.clone());
        let after = service.submit(Query::distance(vid(0), vid(9), faults.clone()));

        let pre = direct.distance(vid(0), vid(9), &faults);
        let outcome = direct.apply_wave(&wave, &ChurnConfig::default());
        let post = direct.distance(vid(0), vid(9), &faults);

        service.drain();
        assert_eq!(
            service.answer(before).unwrap().distance(),
            pre,
            "pre-wave submissions answer against the pre-wave epoch"
        );
        assert_eq!(service.answer(after).unwrap().distance(), post);
        let report = service.wave_report(wave_ticket).expect("wave applied");
        assert_eq!(report.outcome.edges_added, outcome.edges_added);
        assert_eq!(service.oracle().epoch(), 1);
        assert_eq!(service.metrics().waves, 1);
    }

    #[test]
    fn one_pump_answers_everything_ahead_of_the_next_wave() {
        let service = OracleService::new(backend(8), ServiceConfig::default());
        let pre = queries(50, 30, 16);
        let post = queries(40, 30, 17);
        let pre_tickets = service.submit_batch(pre.iter().cloned());
        service.submit_wave(FaultSet::vertices([vid(12)]));
        let post_tickets = service.submit_batch(post.iter().cloned());

        let first = service.pump();
        assert_eq!(first.answered, 50, "the whole pre-wave burst is one round");
        assert_eq!(first.waves, 0);
        assert!(pre_tickets.iter().all(|&t| service.answer(t).is_some()));
        assert_eq!(service.metrics().batches, 1, "one backend batch");

        let second = service.pump();
        assert_eq!((second.answered, second.waves), (0, 1));
        assert_eq!(service.oracle().epoch(), 1);

        let third = service.pump();
        assert_eq!(third.answered, 40, "the post-wave burst is the next round");
        assert!(post_tickets.iter().all(|&t| service.answer(t).is_some()));
        assert_eq!(service.pump(), PumpOutcome::default());
        assert_eq!(service.metrics().rounds, 3);
    }

    #[test]
    fn wave_reports_carry_the_epoch_their_wave_published() {
        let service = OracleService::new(backend(18), ServiceConfig::default());
        let first = service.submit_wave(FaultSet::vertices([vid(4)]));
        let second = service.submit_wave(FaultSet::vertices([vid(11)]));
        service.drain();
        // Read after the fact, the published epoch is 2 for both waves.
        assert_eq!(service.oracle().epoch(), 2);
        assert_eq!(service.wave_report(first).unwrap().epoch, 1);
        assert_eq!(service.wave_report(second).unwrap().epoch, 2);
    }

    #[test]
    fn max_pending_sheds_on_arrival() {
        let config = ServiceConfig::default().with_max_pending(2);
        let service = OracleService::new(backend(9), config);
        let faults = FaultSet::empty(FaultModel::Vertex);
        let a = service.submit(Query::distance(vid(0), vid(1), faults.clone()));
        let b = service.submit(Query::distance(vid(0), vid(2), faults.clone()));
        let c = service.submit(Query::distance(vid(0), vid(3), faults.clone()));
        assert!(matches!(service.state(c), TicketState::Shed));
        // Waves bypass the cap entirely.
        let w = service.submit_wave(FaultSet::vertices([vid(5)]));
        service.drain();
        assert!(service.answer(a).is_some());
        assert!(service.answer(b).is_some());
        assert!(service.wave_report(w).is_some());
        assert_eq!(service.metrics().shed, 1);
    }

    #[test]
    fn recycle_frees_slots_only_between_bursts() {
        let service = OracleService::new(backend(10), ServiceConfig::default());
        let faults = FaultSet::empty(FaultModel::Vertex);
        service.submit(Query::distance(vid(0), vid(1), faults.clone()));
        assert_eq!(service.recycle(), 0, "pending commands pin the slots");
        service.drain();
        assert_eq!(service.recycle(), 1);
        let t = service.submit(Query::distance(vid(0), vid(2), faults));
        assert_eq!(t.index(), 0, "slots restart after a recycle");
        service.drain();
        assert!(service.answer(t).is_some());
    }

    #[test]
    #[should_panic(expected = "invalidated by")]
    fn stale_tickets_panic_after_recycle() {
        let service = OracleService::new(backend(12), ServiceConfig::default());
        let faults = FaultSet::empty(FaultModel::Vertex);
        let stale = service.submit(Query::distance(vid(0), vid(1), faults.clone()));
        service.drain();
        service.recycle();
        let fresh = service.submit(Query::distance(vid(0), vid(2), faults));
        assert_eq!(fresh.index(), stale.index(), "slot is reused");
        service.drain();
        let _ = service.answer(stale); // must panic, not alias `fresh`
    }

    #[test]
    #[should_panic(expected = "issued by another service instance")]
    fn foreign_tickets_are_rejected() {
        let a = OracleService::new(backend(13), ServiceConfig::default());
        let b = OracleService::new(backend(13), ServiceConfig::default());
        let faults = FaultSet::empty(FaultModel::Vertex);
        let from_a = a.submit(Query::distance(vid(0), vid(1), faults.clone()));
        let _ = b.submit(Query::distance(vid(0), vid(2), faults));
        a.drain();
        b.drain();
        let _ = b.answer(from_a); // must panic, not read b's slot 0
    }

    #[test]
    fn pump_on_an_empty_queue_is_a_no_op() {
        let service = OracleService::new(backend(11), ServiceConfig::default());
        let outcome = service.pump();
        assert_eq!(outcome, PumpOutcome::default());
        assert_eq!(service.metrics().rounds, 0);
        assert_eq!(service.drain(), PumpOutcome::default());
    }

    // ------------------------------------------------------------------
    // Concurrent coverage: background threads and several waiters.
    // ------------------------------------------------------------------

    #[test]
    fn worker_pool_matches_direct_answers_across_a_wave() {
        for workers in [1usize, 2, 8] {
            let mut direct = backend(21);
            let service =
                OracleService::new(backend(21), ServiceConfig::default().with_workers(workers));
            let pre_batch = queries(80, 30, 22);
            let post_batch = queries(80, 30, 23);
            let wave = FaultSet::vertices([vid(5), vid(17)]);

            let pre: Vec<TicketId> = pre_batch
                .iter()
                .cloned()
                .map(|q| service.submit(q))
                .collect();
            let wave_ticket = service.submit_wave(wave.clone());
            let post: Vec<TicketId> = post_batch
                .iter()
                .cloned()
                .map(|q| service.submit(q))
                .collect();
            let outcome = service.drain();
            assert_eq!(outcome.answered, 160, "workers {workers}");
            assert_eq!(outcome.waves, 1);

            let want_pre = direct.answer_batch(&pre_batch);
            let report = direct.apply_wave(&wave, &ChurnConfig::default());
            let want_post = direct.answer_batch(&post_batch);
            assert_eq!(
                service
                    .wave_report(wave_ticket)
                    .unwrap()
                    .outcome
                    .edges_added,
                report.edges_added
            );
            // Distances are bit-identical; paths need not be vertex-identical
            // (shortest paths are not unique) but must agree in presence and
            // endpoints — the same contract the differential suite pins.
            for (ticket, want) in pre.iter().zip(&want_pre).chain(post.iter().zip(&want_post)) {
                let got = service.answer(*ticket).expect("ticket answered");
                assert_eq!(got.distance(), want.distance(), "workers {workers}");
                assert_eq!(got.path().is_some(), want.path().is_some());
                if let (Some(g), Some(w)) = (got.path(), want.path()) {
                    assert_eq!(g.first(), w.first());
                    assert_eq!(g.last(), w.last());
                }
            }
            assert_eq!(service.oracle().epoch(), 1);
        }
    }

    #[test]
    fn wait_consumes_the_ticket_and_frees_its_slot() {
        let service = OracleService::new(backend(24), ServiceConfig::default().with_workers(2));
        let faults = FaultSet::empty(FaultModel::Vertex);
        let first = service.submit(Query::distance(vid(0), vid(1), faults.clone()));
        let state = service.wait(first);
        assert!(matches!(state, TicketState::Answered(_)));
        let second = service.submit(Query::distance(vid(0), vid(2), faults));
        assert_eq!(
            second.index(),
            first.index(),
            "wait must return the slot to the free list"
        );
        assert!(matches!(service.wait(second), TicketState::Answered(_)));
    }

    #[test]
    #[should_panic(expected = "invalidated by")]
    fn waited_tickets_cannot_be_redeemed_twice() {
        let service = OracleService::new(backend(25), ServiceConfig::default());
        let faults = FaultSet::empty(FaultModel::Vertex);
        let ticket = service.submit(Query::distance(vid(0), vid(1), faults));
        let _ = service.wait(ticket);
        let _ = service.state(ticket);
    }

    #[test]
    fn drain_reports_the_delta_since_the_last_report() {
        let service = OracleService::new(backend(26), ServiceConfig::default().with_workers(2));
        let batch = queries(20, 30, 27);
        for q in batch {
            service.submit(q);
        }
        assert_eq!(service.drain().answered, 20);
        assert_eq!(service.drain(), PumpOutcome::default());
        assert_eq!(service.metrics().answered, 20);
    }

    #[test]
    fn drain_reports_arrival_sheds_at_any_worker_count() {
        for workers in [0usize, 2] {
            let config = ServiceConfig::default()
                .with_max_pending(1)
                .with_workers(workers);
            let service = OracleService::new(backend(28), config);
            let faults = FaultSet::empty(FaultModel::Vertex);
            let tickets = service.submit_batch([
                Query::distance(vid(0), vid(1), faults.clone()),
                Query::distance(vid(0), vid(2), faults),
            ]);
            assert!(matches!(service.state(tickets[1]), TicketState::Shed));
            let outcome = service.drain();
            assert_eq!(outcome.answered, 1, "workers {workers}");
            assert_eq!(outcome.shed, 1, "workers {workers}: the arrival shed");
        }
    }

    #[test]
    fn into_oracle_stops_the_workers_and_returns_the_backend() {
        let service = OracleService::new(backend(29), ServiceConfig::default().with_workers(4));
        let faults = FaultSet::empty(FaultModel::Vertex);
        service.submit(Query::distance(vid(0), vid(1), faults));
        service.submit_wave(FaultSet::vertices([vid(9)]));
        service.drain();
        let oracle = service.into_oracle();
        assert_eq!(oracle.epoch(), 1);
    }

    /// At 0 workers the submitters drive every round for each other — the
    /// shape the server runs, one submitter per connection.
    #[test]
    fn concurrent_submitters_share_one_service() {
        for workers in [0usize, 2] {
            let service = Arc::new(OracleService::new(
                backend(30),
                ServiceConfig::default().with_workers(workers),
            ));
            let mut handles = Vec::new();
            for t in 0..4u64 {
                let service = Arc::clone(&service);
                handles.push(thread::spawn(move || {
                    let batch = queries(30, 30, 40 + t);
                    let tickets: Vec<TicketId> =
                        batch.iter().cloned().map(|q| service.submit(q)).collect();
                    for (ticket, query) in tickets.into_iter().zip(batch) {
                        match service.wait(ticket) {
                            TicketState::Answered(answer) => {
                                let direct = service.oracle().answer(&query);
                                assert_eq!(answer.distance(), direct.distance());
                            }
                            other => panic!("unexpected ticket state {other:?}"),
                        }
                    }
                }));
            }
            for handle in handles {
                handle.join().expect("submitter thread");
            }
            assert_eq!(service.metrics().answered, 120, "workers {workers}");
        }
    }

    #[test]
    fn wave_barrier_parks_until_the_last_epoch_handle_drops() {
        let service = OracleService::new(backend(31), ServiceConfig::default().with_workers(2));
        let pinned = service.oracle();
        assert_eq!(pinned.epoch(), 0);
        let wave_ticket = service.submit_wave(FaultSet::vertices([vid(3)]));
        // The writer cannot take the slot exclusively while `pinned` is
        // alive: after ample time the wave must still be pending, and the
        // handle must still read the pre-wave epoch.
        thread::sleep(Duration::from_millis(50));
        assert!(
            matches!(service.state(wave_ticket), TicketState::Pending),
            "a held epoch handle must hold the wave barrier"
        );
        let behind = service.submit(Query::distance(
            vid(0),
            vid(5),
            FaultSet::empty(FaultModel::Vertex),
        ));
        assert_eq!(pinned.epoch(), 0, "the handle pins the pre-wave epoch");
        // A clone pins the same epoch after the original drops…
        let clone = pinned.clone();
        drop(pinned);
        thread::sleep(Duration::from_millis(10));
        assert!(matches!(service.state(wave_ticket), TicketState::Pending));
        // …and dropping the last handle wakes the parked writer; the wave
        // publishes and everything queued behind the barrier completes.
        drop(clone);
        assert!(matches!(service.wait(wave_ticket), TicketState::Waved(_)));
        assert!(matches!(service.wait(behind), TicketState::Answered(_)));
        assert_eq!(service.oracle().epoch(), 1);
    }
}
