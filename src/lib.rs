//! # gdp — Global Data Plane
//!
//! A Rust implementation of the federated, data-centric architecture from
//! *"Global Data Plane: A Federated Vision for Secure Data in Edge
//! Computing"* (ICDCS 2019): cryptographically hardened **DataCapsules**
//! (single-writer, append-only authenticated data structures) living on a
//! federated substrate of **DataCapsule-servers** and **GDP-routers**
//! organized into trust domains.
//!
//! This crate is a facade re-exporting the workspace layers:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`crypto`] | `gdp-crypto` | SHA-2, HMAC, HKDF, X25519, Ed25519, AEAD |
//! | [`wire`] | `gdp-wire` | flat names, deterministic codec, PDUs |
//! | [`obs`] | `gdp-obs` | metrics registry, trace sink, JSON dumps |
//! | [`capsule`] | `gdp-capsule` | the DataCapsule ADS, proofs, writers |
//! | [`store`] | `gdp-store` | append-only segment storage |
//! | [`net`] | `gdp-net` | transports: in-process, TCP, deterministic `simnet` |
//! | [`cert`] | `gdp-cert` | principals, AdCerts/RtCerts, advertisements |
//! | [`router`] | `gdp-router` | FIB, GLookupService, secure routing |
//! | [`server`] | `gdp-server` | the DataCapsule-server |
//! | [`client`] | `gdp-client` | verifying client (write/read/subscribe) |
//! | [`caapi`] | `gdp-caapi` | fs / kv / time-series / commit / aggregate |
//! | [`sim`] | `gdp-sim` | simulated worlds on the production runtimes, baselines |
//! | [`node`] | `gdp-node` | deployable node: config, runtime, `gdpd` daemon |
//!
//! ## Quickstart
//!
//! ```
//! use gdp::capsule::{MetadataBuilder, DataCapsule, CapsuleWriter, PointerStrategy};
//! use gdp::crypto::SigningKey;
//!
//! let owner = SigningKey::from_seed(&[1u8; 32]);
//! let writer_key = SigningKey::from_seed(&[2u8; 32]);
//! let metadata = MetadataBuilder::new()
//!     .writer(&writer_key.verifying_key())
//!     .set_str("description", "my first capsule")
//!     .sign(&owner);
//!
//! let mut capsule = DataCapsule::new(metadata.clone()).unwrap();
//! let mut writer = CapsuleWriter::new(&metadata, writer_key, PointerStrategy::SkipList).unwrap();
//! let record = writer.append(b"hello, data plane", 0).unwrap();
//! capsule.ingest(record).unwrap();
//! let heartbeat = capsule.head_heartbeat().unwrap().unwrap();
//! capsule.verify_history(&heartbeat).unwrap();
//! ```

#![forbid(unsafe_code)]

pub use gdp_caapi as caapi;
pub use gdp_capsule as capsule;
pub use gdp_cert as cert;
pub use gdp_client as client;
pub use gdp_crypto as crypto;
pub use gdp_net as net;
pub use gdp_node as node;
pub use gdp_obs as obs;
pub use gdp_router as router;
pub use gdp_server as server;
pub use gdp_sim as sim;
pub use gdp_store as store;
pub use gdp_wire as wire;
