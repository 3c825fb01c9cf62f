//! The snapshot-bootstrapped, journal-following read replica.
//!
//! A [`ReplicaServer`] is a full [`Server`] in replica
//! role: it downloads the primary's snapshot, restores the oracle
//! bit-identically, subscribes to the primary's wave journal, and applies
//! each streamed entry through its own service wave barrier — verifying
//! every entry's [`WaveReport::digest`](ftspan_oracle::WaveReport::digest)
//! against what the primary recorded. Reads (`DIST` / `PATH` / `BATCH` /
//! `METRICS` / `SNAPSHOT`) are served from the replica's local epoch the
//! whole time; `WAVE` is rejected with a typed error until a `PROMOTE`
//! request flips the role.
//!
//! **Lag semantics.** The follower applies entries as the stream delivers
//! them, so a replica lags the primary by at most the in-flight window:
//! entries committed but not yet flushed through the subscription plus the
//! one wave barrier currently applying. Reads never block on the stream —
//! they answer at whatever epoch the replica has reached, exactly like a
//! read against a slightly older primary epoch.
//!
//! **Failover.** `PROMOTE` stops the follower (joining it, so everything
//! received is applied), then accepts waves. Because the replica journals
//! its own applied waves — with digests the stream already proved equal to
//! the primary's — a promoted replica can immediately serve
//! `JOURNAL_SUBSCRIBE` to the next generation of replicas.
//!
//! The replica must run the **same churn configuration** as the primary:
//! repair decisions are a function of it, and a mismatch is detected as a
//! digest divergence at the first applied entry (served stale-but-correct
//! reads continue; the divergence is exposed via
//! [`ReplicaServer::divergence`]).

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use ftspan_oracle::replication::ReplicationError;
use ftspan_oracle::{
    JournalEntry, OracleService, ServiceConfig, Snapshot, Snapshottable, SpannerOracle, TicketState,
};

use crate::client::Client;
use crate::protocol::{decode_reply, read_frame, Frame, Reply};
use crate::server::{FollowerControl, Server, ServerConfig};

/// A running read replica. Dereference-free wrapper over [`Server`]; see
/// the [module docs](self) for the replication lifecycle.
#[derive(Debug)]
pub struct ReplicaServer<O: SpannerOracle + 'static> {
    server: Server<O>,
    divergence: Arc<Mutex<Option<ReplicationError>>>,
}

impl<O> ReplicaServer<O>
where
    O: SpannerOracle + Snapshottable + 'static,
{
    /// Bootstraps a replica from the primary at `primary` and serves reads
    /// on `addr`: snapshot download (chunked), bit-identical restore,
    /// journal subscription from the restored epoch, follower thread.
    ///
    /// `service_config` must carry the **same churn configuration** the
    /// primary applies waves under.
    ///
    /// # Errors
    ///
    /// Any error from the snapshot download (a typed I/O error when the
    /// primary dies mid-download — never a hang), a failed restore
    /// (`InvalidData`), a rejected subscription, or binding `addr`.
    pub fn start(
        primary: impl ToSocketAddrs,
        addr: impl ToSocketAddrs,
        service_config: ServiceConfig,
        server_config: ServerConfig,
    ) -> io::Result<Self> {
        let mut bootstrap = Client::connect(&primary)?;
        let snapshot = bootstrap.snapshot()?;
        drop(bootstrap);
        let oracle: O = Snapshot::restore(&snapshot).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bootstrap snapshot failed to restore: {e}"),
            )
        })?;
        let service = OracleService::new(oracle, service_config);
        let from_epoch = service.oracle().epoch();

        // Subscribe on a dedicated connection; the first frame (read by
        // `journal_subscribe`) surfaces rejections before the server
        // starts, and any backlog it carries is applied by the follower.
        let mut subscription = Client::connect(&primary)?;
        let backlog = subscription.journal_subscribe(from_epoch)?;

        let server = Server::start_with_role(service, addr, server_config, false)?;
        let service = server.service_arc();
        let divergence: Arc<Mutex<Option<ReplicationError>>> = Arc::new(Mutex::new(None));
        let stop = Arc::new(AtomicBool::new(false));
        let stream = subscription.into_stream();
        let follower_stream = stream.try_clone()?;
        let handle = {
            let stop = Arc::clone(&stop);
            let divergence = Arc::clone(&divergence);
            thread::Builder::new()
                .name("ftspan-follower".into())
                .spawn(move || {
                    follower_loop(follower_stream, &service, backlog, &stop, &divergence);
                })?
        };
        server.install_follower(FollowerControl {
            stop,
            stream,
            handle,
        });
        Ok(Self { server, divergence })
    }

    /// The address the replica is serving reads on.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// `true` once a `PROMOTE` has made this replica a primary.
    #[must_use]
    pub fn is_promoted(&self) -> bool {
        self.server.accepts_waves()
    }

    /// The epoch the replica currently serves reads at; the gap to the
    /// primary's epoch is the replication lag in waves.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.server.service_arc().oracle().epoch()
    }

    /// The divergence that stopped the follower, if any: a replayed entry
    /// whose report digest did not match the primary's. The replica keeps
    /// serving reads at its last verified epoch, but must be considered
    /// unable to catch up further.
    #[must_use]
    pub fn divergence(&self) -> Option<ReplicationError> {
        self.divergence
            .lock()
            .expect("divergence cell poisoned")
            .clone()
    }

    /// Stops following (if still following), drains connections, and
    /// hands back the warm service at the epoch the replica reached.
    ///
    /// # Panics
    ///
    /// Panics if a server thread panicked.
    #[must_use]
    pub fn shutdown(self) -> OracleService<O> {
        self.server.shutdown()
    }
}

/// The follower: applies the subscription backlog, then every streamed
/// [`Reply::JournalEntries`] frame, through the replica's own wave
/// barrier — digest-checking each entry. Exits on stop, stream end
/// (primary gone — the replica keeps serving reads and can still be
/// promoted), or divergence.
fn follower_loop<O: SpannerOracle + 'static>(
    mut stream: TcpStream,
    service: &OracleService<O>,
    backlog: Vec<JournalEntry>,
    stop: &AtomicBool,
    divergence: &Mutex<Option<ReplicationError>>,
) {
    // The subscription stream must outlive any read timeout the OS might
    // inherit; waves can be minutes apart, and heartbeats keep it warm.
    let _ = stream.set_read_timeout(None);
    if !apply_entries(service, backlog, stop, divergence) {
        return;
    }
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match read_frame(&mut stream) {
            Ok(Some(Frame::Intact(body))) => match decode_reply(&body) {
                Ok(Reply::JournalEntries(entries)) => {
                    if !apply_entries(service, entries, stop, divergence) {
                        return;
                    }
                }
                // Anything else on a subscription stream is protocol
                // breakage; stop following, keep serving.
                Ok(_) | Err(_) => return,
            },
            // A corrupt frame never reaches apply: skip it. Entries are
            // individually checksummed too, so even a colliding frame
            // checksum cannot smuggle a damaged entry through.
            Ok(Some(Frame::Corrupt)) => {}
            Ok(None) => return, // primary closed the stream
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Applies a batch of streamed entries in order. Returns `false` when the
/// follower must stop (divergence recorded, stop flag, or a wave that
/// failed to resolve).
fn apply_entries<O: SpannerOracle + 'static>(
    service: &OracleService<O>,
    entries: Vec<JournalEntry>,
    stop: &AtomicBool,
    divergence: &Mutex<Option<ReplicationError>>,
) -> bool {
    for entry in entries {
        if stop.load(Ordering::SeqCst) {
            return false;
        }
        // Heartbeats resend nothing; duplicates after a reconnect would
        // arrive below the current epoch — skip, never re-apply.
        if entry.epoch <= service.oracle().epoch() {
            continue;
        }
        let ticket = service.submit_wave(entry.wave.clone());
        match service.wait(ticket) {
            TicketState::Waved(report) => {
                let found = report.digest();
                if found != entry.report_digest {
                    *divergence.lock().expect("divergence cell poisoned") =
                        Some(ReplicationError::Divergence {
                            epoch: entry.epoch,
                            expected: entry.report_digest,
                            found,
                        });
                    return false;
                }
            }
            _ => return false,
        }
    }
    true
}
