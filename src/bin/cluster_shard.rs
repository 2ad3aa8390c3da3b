//! The cluster shard process, built by the root package so that a root
//! `cargo build` or `cargo test` provides it (root integration tests find it
//! through `CARGO_BIN_EXE_cluster_shard`). Same program as `ms-net`'s
//! `shard_server` bin; see [`ms_net::shard`].

fn main() {
    ms_net::shard::serve_from_env();
}
