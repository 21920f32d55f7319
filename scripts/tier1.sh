#!/usr/bin/env bash
# Tier-1 verification: the gate every PR must keep green (see ROADMAP.md).
#
# Builds the whole workspace in release mode, then runs the full test
# suite. The root Cargo.toml's default-members cover every crate, so this
# includes the pipeline and sharding equivalence gates and the chunked
# state-transfer tests. Offline by construction: .cargo/config.toml pins
# net.offline and every external dependency is a vendored path dependency,
# so this runs identically with or without network access.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
