//! The three workloads, generated from the seed.
//!
//! Each stresses a different layer, so an optimization of one layer has a
//! workload that exercises it and one that bypasses it:
//!
//! - `kv_batch`: small agreement-heavy operations; protocol logic, MACs,
//!   small-message codecs, batching and scheduling do the work.
//! - `andrew_hetero`: 8 KiB transfers into whole-file abstract objects;
//!   the conformance wrapper, `get_obj`, checkpoint digests and the
//!   partition tree do the work.
//! - `nfs_recovery`: open-loop load while every replica reboots clean and
//!   one carries latent corrupt state; state transfer, `put_objs` and
//!   reboot do the work.

use crate::client::{Arrival, Op};
use base_nfs::spec::Oid;
use base_nfs::{NfsOp, NfsReply};
use base_pbft::Config;
use base_simnet::SimDuration;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A workload name from the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    KvBatch,
    AndrewHetero,
    NfsRecovery,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "kv_batch" => Some(Workload::KvBatch),
            "andrew_hetero" => Some(Workload::AndrewHetero),
            "nfs_recovery" => Some(Workload::NfsRecovery),
            _ => None,
        }
    }
}

/// What a correct result looks like.
#[derive(Clone, Debug)]
pub enum Expect {
    /// Exactly these bytes.
    Exact(Vec<u8>),
    /// Any NFS reply other than an error.
    NfsOk,
    /// An NFS `Data` reply carrying exactly these bytes.
    NfsData(Vec<u8>),
}

impl Expect {
    pub fn holds(&self, result: &[u8]) -> bool {
        match self {
            Expect::Exact(want) => result == want.as_slice(),
            Expect::NfsOk => NfsReply::from_bytes(result).is_some_and(|r| r.is_ok()),
            Expect::NfsData(want) => {
                matches!(NfsReply::from_bytes(result), Some(NfsReply::Data(d)) if d == *want)
            }
        }
    }
}

/// One client's operations.
pub struct ClientPlan {
    pub ops: Vec<Op>,
    pub expect: Vec<Expect>,
    /// Leading operations that pre-populate state during set-up.
    pub warmup: usize,
    pub arrival: Arrival,
}

impl ClientPlan {
    fn closed() -> Self {
        Self {
            ops: Vec::new(),
            expect: Vec::new(),
            warmup: 0,
            arrival: Arrival::Closed,
        }
    }

    fn push(&mut self, bytes: Vec<u8>, read_only: bool, expect: Expect) {
        self.ops.push(Op { bytes, read_only });
        self.expect.push(expect);
    }

    fn nfs(&mut self, op: NfsOp, expect: Expect) {
        let read_only = op.is_read_only();
        self.push(op.to_bytes(), read_only, expect);
    }
}

/// The service a workload replicates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Service {
    /// The demo key-value store (`KvWrapper` over `TinyKv`) everywhere.
    Kv,
    /// Replica `i` runs InodeFs, FlatFs, LogFs, BtreeFs for `i % 4`.
    NfsHetero,
}

/// Everything one run of a workload needs.
pub struct Plan {
    pub service: Service,
    pub cfg: Config,
    pub clients: Vec<ClientPlan>,
    /// Replica given latent corrupt state once set-up ends.
    pub corrupt: Option<usize>,
}

impl Plan {
    /// Operations in the measured part, over all clients.
    pub fn measured_ops(&self) -> usize {
        self.clients.iter().map(|c| c.ops.len() - c.warmup).sum()
    }
}

/// kv_batch: closed-loop clients; each put is 1 KiB of operation bytes.
const KV_CLIENTS: usize = 8;
const KV_OPS_PER_CLIENT: usize = 300;
const KV_KEYS_PER_CLIENT: usize = 16;
const KV_OP_BYTES: usize = 1024;
/// Every `KV_GET_EVERY`-th operation is a read-only get.
const KV_GET_EVERY: usize = 4;

/// andrew_hetero: directories × files × KiB per file.
const ANDREW_DIRS: u32 = 5;
const ANDREW_FILES_PER_DIR: u32 = 10;
const ANDREW_FILE_KIB: u64 = 80;
/// NFS-style transfer size.
const CHUNK: u64 = 8 * 1024;

/// nfs_recovery: pre-populated files, then open-loop overwrites and reads.
const REC_FILES: u32 = 16;
const REC_FILE_KIB: u64 = 32;
const REC_OPS: usize = 1200;
const REC_GAP: SimDuration = SimDuration::from_millis(10);
const REC_PERIOD: SimDuration = SimDuration::from_secs(4);
const REC_REBOOT: SimDuration = SimDuration::from_millis(200);
const REC_CORRUPT_REPLICA: usize = 0;

pub fn plan(workload: Workload, seed: u64) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed);
    match workload {
        Workload::KvBatch => kv_batch(&mut rng),
        Workload::AndrewHetero => andrew_hetero(&mut rng),
        Workload::NfsRecovery => nfs_recovery(&mut rng),
    }
}

fn kv_batch(rng: &mut StdRng) -> Plan {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    let clients = (0..KV_CLIENTS)
        .map(|c| {
            let mut plan = ClientPlan::closed();
            let mut last: Vec<Vec<u8>> = Vec::with_capacity(KV_KEYS_PER_CLIENT);
            let put = |plan: &mut ClientPlan, k: usize, rng: &mut StdRng| {
                let head = format!("put c{c}k{k} ");
                let value: Vec<u8> = (head.len()..KV_OP_BYTES)
                    .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
                    .collect();
                let mut bytes = head.into_bytes();
                bytes.extend_from_slice(&value);
                plan.push(bytes, false, Expect::Exact(b"ok".to_vec()));
                value
            };
            // Set-up puts every key once, so every get reads a value.
            for k in 0..KV_KEYS_PER_CLIENT {
                last.push(put(&mut plan, k, rng));
            }
            plan.warmup = KV_KEYS_PER_CLIENT;
            for i in 0..KV_OPS_PER_CLIENT {
                let k = rng.gen_range(0..KV_KEYS_PER_CLIENT);
                if i % KV_GET_EVERY == KV_GET_EVERY - 1 {
                    let get = format!("get c{c}k{k}").into_bytes();
                    plan.push(get, true, Expect::Exact(last[k].clone()));
                } else {
                    last[k] = put(&mut plan, k, rng);
                }
            }
            plan
        })
        .collect();
    Plan {
        service: Service::Kv,
        cfg: Config::new(4),
        clients,
        corrupt: None,
    }
}

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    rng.fill_bytes(&mut out);
    out
}

/// Appends create + chunked writes of `content` as file `name` in `dir`,
/// which the wrapper's lowest-first allocation gives oid `fh`.
fn write_file(plan: &mut ClientPlan, dir: Oid, name: String, fh: Oid, content: &[u8]) {
    plan.nfs(
        NfsOp::Create {
            dir,
            name,
            mode: 0o644,
        },
        Expect::NfsOk,
    );
    for (k, chunk) in content.chunks(CHUNK as usize).enumerate() {
        let offset = k as u64 * CHUNK;
        plan.nfs(
            NfsOp::Write {
                fh,
                offset,
                data: chunk.to_vec(),
            },
            Expect::NfsOk,
        );
    }
}

/// The five Andrew phases (MakeDir, Copy, ScanDir, ReadAll, Make) with
/// seeded file contents; every read expects the bytes written.
fn andrew_hetero(rng: &mut StdRng) -> Plan {
    let (dirs, files) = (ANDREW_DIRS, ANDREW_FILES_PER_DIR);
    let dir_oid = |d: u32| Oid {
        index: 1 + d,
        gen: 1,
    };
    let file_oid = |d: u32, f: u32| Oid {
        index: 1 + dirs + d * files + f,
        gen: 1,
    };
    let out_oid = |d: u32| Oid {
        index: 1 + dirs + dirs * files + d,
        gen: 1,
    };
    let file_bytes = (ANDREW_FILE_KIB * 1024) as usize;
    let contents: Vec<Vec<u8>> = (0..dirs * files)
        .map(|_| random_bytes(rng, file_bytes))
        .collect();
    let content = |d: u32, f: u32| &contents[(d * files + f) as usize];

    let mut plan = ClientPlan::closed();
    for d in 0..dirs {
        plan.nfs(
            NfsOp::Mkdir {
                dir: Oid::ROOT,
                name: format!("dir{d}"),
                mode: 0o755,
            },
            Expect::NfsOk,
        );
    }
    for d in 0..dirs {
        for f in 0..files {
            write_file(
                &mut plan,
                dir_oid(d),
                format!("file{f}.c"),
                file_oid(d, f),
                content(d, f),
            );
        }
    }
    for d in 0..dirs {
        plan.nfs(NfsOp::Readdir { dir: dir_oid(d) }, Expect::NfsOk);
        for f in 0..files {
            plan.nfs(NfsOp::Getattr { fh: file_oid(d, f) }, Expect::NfsOk);
        }
    }
    for d in 0..dirs {
        for f in 0..files {
            for (k, chunk) in content(d, f).chunks(CHUNK as usize).enumerate() {
                let read = NfsOp::Read {
                    fh: file_oid(d, f),
                    offset: k as u64 * CHUNK,
                    count: CHUNK as u32,
                };
                plan.nfs(read, Expect::NfsData(chunk.to_vec()));
            }
        }
    }
    // Make: read every source's first block, write one object file per
    // directory of a quarter of the directory's source volume.
    for d in 0..dirs {
        for f in 0..files {
            let want = content(d, f)[..CHUNK as usize].to_vec();
            plan.nfs(
                NfsOp::Read {
                    fh: file_oid(d, f),
                    offset: 0,
                    count: CHUNK as u32,
                },
                Expect::NfsData(want),
            );
        }
        let out = random_bytes(rng, file_bytes * files as usize / 4);
        write_file(&mut plan, dir_oid(d), "prog.o".into(), out_oid(d), &out);
    }
    Plan {
        service: Service::NfsHetero,
        cfg: Config::new(4),
        clients: vec![plan],
        corrupt: None,
    }
}

fn nfs_recovery(rng: &mut StdRng) -> Plan {
    let file_bytes = (REC_FILE_KIB * 1024) as usize;
    let file_oid = |k: u32| Oid {
        index: 1 + k,
        gen: 1,
    };
    let mut model: Vec<Vec<u8>> = (0..REC_FILES)
        .map(|_| random_bytes(rng, file_bytes))
        .collect();
    let mut plan = ClientPlan::closed();
    for (k, content) in model.iter().enumerate() {
        write_file(
            &mut plan,
            Oid::ROOT,
            format!("f{k}"),
            file_oid(k as u32),
            content,
        );
    }
    plan.warmup = plan.ops.len();
    plan.arrival = Arrival::Open { gap: REC_GAP };
    // Alternate sparse overwrites and reads of random ranges; each read
    // expects the file's content after every earlier overwrite.
    for i in 0..REC_OPS {
        let k = rng.gen_range(0..REC_FILES);
        if i % 2 == 0 {
            let len = rng.gen_range(256..4097usize);
            let offset = rng.gen_range(0..file_bytes - len + 1);
            let data = random_bytes(rng, len);
            model[k as usize][offset..offset + len].copy_from_slice(&data);
            plan.nfs(
                NfsOp::Write {
                    fh: file_oid(k),
                    offset: offset as u64,
                    data,
                },
                Expect::NfsOk,
            );
        } else {
            let count = 4096usize;
            let offset = rng.gen_range(0..file_bytes - count + 1);
            let want = model[k as usize][offset..offset + count].to_vec();
            let read = NfsOp::Read {
                fh: file_oid(k),
                offset: offset as u64,
                count: count as u32,
            };
            plan.nfs(read, Expect::NfsData(want));
        }
    }
    let mut cfg = Config::new(4);
    cfg.recovery_period = Some(REC_PERIOD);
    cfg.reboot_time = REC_REBOOT;
    Plan {
        service: Service::NfsHetero,
        cfg,
        clients: vec![plan],
        corrupt: Some(REC_CORRUPT_REPLICA),
    }
}
