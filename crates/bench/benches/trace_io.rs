//! Trace codec and streaming-replay throughput.
//!
//! The streaming pipeline only pays off if decode runs far ahead of the
//! simulator: these rows pin encode, chunk decode (every store backend),
//! bulk refill vs per-record iteration, 8-way interleave sharding with and
//! without shared decodes, and end-to-end replay.

use bench::micro::Group;
use mem_trace::stream::{write_v2_file, StreamTrace};
use mem_trace::{ShardSpec, TraceFeed, VecTrace};
use sim::{CoreFeed, Mechanism, SimConfig};
use workloads::{Benchmark, Scale};

const RECORDS: usize = 100_000;
/// Records per chunk: small enough that the file spans many more chunks
/// than an open trace keeps decoded for its cursors, so every pass over it
/// decodes rather than reusing the previous pass's chunks.
const CHUNK: u32 = 1 << 13;

fn encode(trace: &VecTrace) -> Vec<u8> {
    mem_trace::codec::encode_v2_chunked(trace, CHUNK)
}

fn main() {
    let records: VecTrace = Benchmark::Mcf
        .trace(0, Scale::Smoke)
        .take(RECORDS)
        .collect();
    let bytes = encode(&records);
    let g = Group::new("trace_io", RECORDS as u64);

    g.bench("encode_v2", || encode(&records).len());

    let mem = StreamTrace::from_bytes(bytes.clone()).expect("valid v2");
    g.bench("decode_mem", || {
        let mut acc = 0u64;
        for r in mem.clone() {
            acc ^= r.addr;
        }
        acc
    });

    // File-backed backends: mmap pages vs positioned reads.
    let path = std::env::temp_dir().join(format!("redhip-trace-io-{}.trace", std::process::id()));
    write_v2_file(&path, records.iter(), CHUNK).expect("write");
    let mapped = StreamTrace::open(&path).expect("open");
    g.bench(&format!("decode_{}", mapped.backend()), || {
        let mut acc = 0u64;
        for r in mapped.clone() {
            acc ^= r.addr;
        }
        acc
    });
    let buffered = StreamTrace::open_buffered(&path).expect("open buffered");
    g.bench(&format!("decode_{}", buffered.backend()), || {
        let mut acc = 0u64;
        for r in buffered.clone() {
            acc ^= r.addr;
        }
        acc
    });

    // Bulk refill is the simulator's ingestion path (BufferedTrace).
    g.bench("refill_bulk", || {
        let mut c = mem.clone();
        let mut buf = Vec::with_capacity(4096);
        let mut total = 0usize;
        loop {
            buf.clear();
            let n = c.refill(&mut buf, 4096);
            if n == 0 {
                break;
            }
            total += n;
        }
        total
    });

    // Draining the 8 interleave shards one after another is the re-decode
    // worst case: a shard starts only after the shared chunk set has moved
    // past the chunks it needs, so every shard decodes every chunk itself.
    g.bench("shard_interleave8", || {
        let mut acc = 0u64;
        for i in 0..8 {
            for r in mem.shard(ShardSpec::Interleave {
                shards: 8,
                index: i,
            }) {
                acc ^= r.addr;
            }
        }
        acc
    });

    // The 8 shards refilled in turn, 128 records each, the way the
    // simulator pulls them: each chunk is decoded once and shared.
    g.bench("shard_interleave8_lockstep", || {
        let mut shards: Vec<StreamTrace> = (0..8)
            .map(|i| {
                mem.shard(ShardSpec::Interleave {
                    shards: 8,
                    index: i,
                })
            })
            .collect();
        let mut buf = Vec::with_capacity(128);
        let mut acc = 0u64;
        loop {
            let mut got = 0;
            for s in shards.iter_mut() {
                buf.clear();
                got += s.refill(&mut buf, 128);
                acc ^= buf.iter().fold(0, |a, r| a ^ r.addr);
            }
            if got == 0 {
                break acc;
            }
        }
    });

    // End-to-end: stream the file through the simulator under ReDHiP.
    let replay = Group::new("trace_replay", RECORDS as u64);
    let mut cfg = SimConfig::new(energy_model::presets::demo_scale(), Mechanism::Redhip);
    let cores = cfg.platform.cores;
    cfg.refs_per_core = RECORDS / cores;
    cfg.recalib_period = Some(8_192);
    replay.bench_with_setup(
        "interleave_redhip",
        || {
            (0..cores)
                .map(|i| {
                    Box::new(mapped.shard(ShardSpec::Interleave {
                        shards: cores as u32,
                        index: i as u32,
                    })) as CoreFeed
                })
                .collect::<Vec<_>>()
        },
        |feeds| sim::run_feeds(&cfg, feeds).total_refs(),
    );

    let _ = std::fs::remove_file(&path);
}
