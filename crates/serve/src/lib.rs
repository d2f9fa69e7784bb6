//! Flow-as-a-service for the monolith3d experiment engine.
//!
//! This crate turns the batch flow pipeline into a long-running
//! server speaking a newline-delimited JSON protocol (one frame per
//! line, the same hand-rolled codec conventions as the `observe`
//! trace format — see DESIGN.md §15) over unix domain sockets and
//! TCP. Connections map to client identities in the admission queue,
//! so per-client quotas, priorities and backpressure all apply per
//! connection, and identical concurrent requests from different
//! connections coalesce on the shared artifact cache: the expensive
//! library characterization runs exactly once and every submitter
//! gets its own response.
//!
//! - [`protocol`] — frame parsing and response rendering.
//! - [`server`] — the accept/dispatch machinery and graceful drain.
//! - [`client`] — a small blocking unix-socket client used by the
//!   tests and by anyone scripting the server from Rust.

pub mod client;
pub mod protocol;
pub mod server;

pub use client::ClientStream;
pub use protocol::{ErrorClass, Request, WireError, MAX_FRAME};
pub use server::{Listen, Server, ServerConfig, ServerController};
