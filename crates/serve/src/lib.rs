//! Model distribution for the Waldo reproduction (§3.1's download path,
//! grown into a service).
//!
//! The paper's deployment story is a central constructor that devices
//! query: *"a mobile white-space device downloads the model for its area
//! and classifies locally."* This crate is that distribution layer:
//!
//! * [`protocol`] — length-prefixed frames over TCP with typed statuses,
//!   bounded request sizes, versioned request/response codecs, and
//!   resumable frame state machines for non-blocking transports.
//! * [`catalog`] — the server-side [`ModelCatalog`]: per-channel epochs and
//!   per-locality payload slots, diffed on every publish, each channel
//!   carrying a cache of pre-encoded response tails keyed by `have_epoch`.
//! * [`server`] — a reactor-pool `TcpListener` server (`std` only):
//!   non-blocking sockets swept by a small fixed pool of event loops,
//!   keep-alive connections, per-connection deadlines, graceful shutdown.
//! * [`client`] — the device side: a payload cache per channel, so a fetch
//!   at epoch N transfers only localities that changed since N, and
//!   locality-scoped fetches assemble out-of-scope territory as the
//!   conservative not-safe fallback. Also the upload side: batches of
//!   location-tagged readings travel under client-minted batch IDs, so
//!   the retry loop never double-ingests.
//! * [`ingest`] — the server-side ingestion plane closing the paper's
//!   crowd-sourcing loop: uploads land in a durable WAL (`waldo-store`),
//!   a background worker checkpoints them into per-locality segments,
//!   retrains only changed localities, and republishes into the catalog
//!   so delta fetches propagate the refreshed model.
//! * [`replica`] — geo-replicated serving: followers pull `REPL_SYNC`
//!   deltas from a leader (or any replica) and mirror its epochs,
//!   change-epochs, and digests verbatim into a local catalog, so a
//!   client failing over mid-session keeps its delta cache valid.
//!   Clients take a replica *list* ([`ModelClient::with_endpoints`]) with
//!   sticky-until-failure selection and per-endpoint circuit breakers.
//!
//! Models travel in the compact binary wire format of [`waldo::wire`]
//! (k-means centroids + per-locality SVM/NB/tree/logistic parameters);
//! payload identity across epochs is their FNV-1a-64 digest. The whole
//! path is timed with `waldo-obs` histograms (`serve_handle`,
//! `serve_encode`, …; recorded under the `obs` feature), its request,
//! error and upload counts are the always-on atomics of
//! [`StatsSnapshot`], and it is exercised by the `serve_load`
//! multi-client load generator, which emits `BENCH_serve.json`.
//!
//! # Examples
//!
//! ```no_run
//! use std::sync::{Arc, RwLock};
//! use std::time::Duration;
//! use waldo::{ModelConstructor, WaldoConfig};
//! use waldo_serve::{serve, ModelCatalog, ModelClient, ServeConfig};
//!
//! # fn dataset() -> waldo_data::ChannelDataset { unimplemented!() }
//! let model = ModelConstructor::new(WaldoConfig::default()).fit(&dataset()).unwrap();
//! let catalog = Arc::new(RwLock::new(ModelCatalog::new()));
//! catalog.write().unwrap().publish(30, &model);
//!
//! let mut server = serve("127.0.0.1:0", Arc::clone(&catalog), ServeConfig::default()).unwrap();
//! let mut client = ModelClient::new(server.addr(), Duration::from_secs(2));
//! let (downloaded, report) = client.fetch(30, 12.0, 8.0, -1.0).unwrap();
//! assert_eq!(downloaded, model);
//! assert_eq!(report.epoch, 1);
//! server.shutdown();
//! ```

pub mod catalog;
pub mod client;
pub mod ingest;
pub mod protocol;
pub mod replica;
pub mod server;
pub mod stats;

pub use catalog::{ModelCatalog, ReplicaInstallError};
pub use client::{
    CircuitBreakerPolicy, ClientError, ClientObsSnapshot, FetchReport, ModelClient, RetryPolicy,
    UploadReport,
};
pub use ingest::{IngestPlane, IngestSnapshot, IngestWorker};
pub use protocol::{Request, Status, UploadAck};
pub use replica::{ReplicaFollower, ReplicaSyncSnapshot, ReplicaWorker};
pub use server::{serve, serve_with_ingest, EnvConfigError, ServeConfig, ServerHandle};
pub use stats::{EndpointStats, StatsSnapshot};
