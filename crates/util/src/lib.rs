#![warn(missing_docs)]

//! # catnap-util
//!
//! Zero-dependency support library for the Catnap reproduction. The
//! whole workspace builds offline from a cold cargo cache: everything
//! the simulator previously pulled from crates.io (`rand`, `serde`,
//! `serde_json`, `proptest`, `criterion`) is replaced by the three
//! small modules here.
//!
//! * [`rng`] — [`SimRng`], a seedable xoshiro256\*\* generator with
//!   SplitMix64 seeding, uniform ranges, shuffling, and independent
//!   named streams for decorrelated simulation components.
//! * [`json`] — a minimal JSON value type with a serializer, a parser,
//!   and [`ToJson`]/[`FromJson`] traits used by the trace format and
//!   the benchmark output files.
//! * [`check`] — a mini property-testing runner: N seeded cases over
//!   `SimRng`-driven generators, failing-seed reporting, and
//!   shrink-by-halving.
//! * [`pool`] — [`par_map`], an order-preserving parallel map on
//!   scoped threads that fans out sweep points.
//! * [`hash`] — [`IdMap`], a `HashMap` with a fixed multiplicative
//!   hasher for maps keyed by sequential ids.
//! * [`codec`] — the checkpoint binary format: little-endian
//!   [`ByteWriter`]/[`ByteReader`] primitives, an incremental FNV-1a
//!   hasher, and the versioned magic + fingerprint + checksum container
//!   (`seal`/`open`).

pub mod check;
pub mod codec;
pub mod hash;
pub mod json;
pub mod pool;
pub mod rng;

pub use check::Checker;
pub use codec::{ByteReader, ByteWriter, CodecError, Fnv64};
pub use hash::IdMap;
pub use json::{FromJson, Json, JsonError, ToJson};
pub use pool::par_map;
pub use rng::SimRng;
