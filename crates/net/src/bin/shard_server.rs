//! The cluster shard process; see [`ms_net::shard`] for its `MS_SHARD_*`
//! configuration and handshake.

fn main() {
    ms_net::shard::serve_from_env();
}
