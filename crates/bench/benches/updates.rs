//! §4.4 + §5 "Performance summary" — batch update cost, IF vs OIF —
//! plus the B⁺-tree write path: durable batch-insert throughput at
//! 1/2/4/8 writer threads sharing one tree behind a `Mutex` (one writer
//! in the tree at a time, commits overlapping through group commit) and
//! a 90/10 mixed read-write leg behind an `RwLock`. Prints one table row per point
//! and, when the `BENCH_JSON` environment variable names a file, writes
//! the same rows as a JSON array (the CI workflow emits
//! `BENCH_updates.json` this way).
//!
//! Paper claims to reproduce:
//! * "OIF has 3-5× slower update times than IF and it behaves practically
//!   linearly to the update size as IF does."
//! * Example: inserting 200 K records into a 1M-record / 2 K-item dataset
//!   took 12 s (IF) vs 27 s (OIF) — 0.06 vs 0.135 ms per record — giving a
//!   766:1 query-to-update break-even against the measured query savings.

use bench::scale;
use datagen::{Record, SyntheticSpec};
use oif::{DeltaOif, OifConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::{Mutex, RwLock};
use std::time::Instant;

fn fresh_records(base: &datagen::Dataset, count: usize, seed: u64) -> Vec<Record> {
    let start = base.records.last().map_or(0, |r| r.id) + 1;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let len = rng.random_range(2..=20usize);
            let items: Vec<u32> = (0..len)
                .map(|_| rng.random_range(0..base.vocab_size as u32))
                .collect();
            Record::new(start + i as u64, items)
        })
        .collect()
}

struct Row {
    name: String,
    ops: usize,
    kops_per_s: f64,
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Hash-distributed 8-byte key for entry `i` of key space `space` —
/// random-looking keys spread writers across leaves instead of piling
/// every insert onto the rightmost page.
fn key(space: u64, i: u64) -> [u8; 8] {
    splitmix(space << 32 | i).to_be_bytes()
}

fn seeded_mem_tree(seed_entries: u64) -> btree::BTree {
    let pager = pagestore::Pager::with_cache_bytes(1 << 21);
    let mut t = btree::BTree::create(pager);
    for i in 0..seed_entries {
        t.insert(&key(0, i), &i.to_le_bytes()).unwrap();
    }
    t
}

/// B⁺-tree durable write throughput: N writer threads share one tree on
/// a `FileStorage` pool behind a `Mutex`; each writer repeatedly
/// batch-inserts a chunk of fresh hash-distributed keys under the lock
/// and makes it durable with `group_sync` outside it. The total insert
/// count is fixed, so more writers win exactly as far as overlapping
/// commits amortise barriers (group commit) and fsync stalls overlap
/// with other writers' inserts — the same effect `bench --bench commit`
/// isolates, here measured end to end through the tree's write path.
fn run_writers(writers: usize, rows: &mut Vec<Row>) {
    const SEED: u64 = 4_000;
    const ROUNDS_TOTAL: u64 = 24; // divisible by 1, 2, 4, 8
    const CHUNK: u64 = 250;
    let path = std::env::temp_dir().join(format!(
        "oif-bench-updates-t{writers}-{}.db",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let storage = pagestore::FileStorage::create(&path).expect("create pool file");
    let pager = pagestore::Pager::with_storage(storage, 1 << 21);
    let tree = {
        let mut t = btree::BTree::create(pager.clone());
        for i in 0..SEED {
            t.insert(&key(0, i), &i.to_le_bytes()).unwrap();
        }
        Mutex::new(t)
    };
    pager.sync().expect("warm-up sync");

    let rounds = ROUNDS_TOTAL / writers as u64;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for w in 0..writers as u64 {
            let (tree, pager) = (&tree, &pager);
            s.spawn(move || {
                for round in 0..rounds {
                    let batch: Vec<(Vec<u8>, Vec<u8>)> = (0..CHUNK)
                        .map(|i| {
                            let k = key(10 + w, round * CHUNK + i);
                            (k.to_vec(), i.to_le_bytes().to_vec())
                        })
                        .collect();
                    tree.lock()
                        .unwrap()
                        .try_batch_insert(&batch)
                        .expect("batch insert");
                    pager.group_sync().expect("group sync");
                }
            });
        }
    });
    let wall = t0.elapsed();
    tree.into_inner().unwrap().check_invariants();
    let _ = std::fs::remove_file(&path);
    let inserts = ROUNDS_TOTAL * CHUNK;
    let kops = inserts as f64 / wall.as_secs_f64() / 1e3;
    println!(
        "writers t{writers} | {inserts:>6} durable inserts | {wall:>9.2?} | {kops:>8.1} kops/s"
    );
    rows.push(Row {
        name: format!("writers_t{writers}"),
        ops: inserts as usize,
        kops_per_s: kops,
    });
}

/// 90/10 mixed leg: 4 threads, each interleaving 90 % point gets of
/// seeded keys (read lock) with 10 % fresh inserts (write lock), all on
/// one in-memory tree shared through an `RwLock`.
fn run_mixed(rows: &mut Vec<Row>) {
    const SEED: u64 = 10_000;
    const THREADS: usize = 4;
    const OPS_PER_THREAD: u64 = 12_000;
    let tree = RwLock::new(seeded_mem_tree(SEED));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let tree = &tree;
            s.spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    if i % 10 == 0 {
                        let k = key(2 + t, i);
                        tree.write()
                            .unwrap()
                            .try_insert(&k, &i.to_le_bytes())
                            .expect("insert");
                    } else {
                        let k = key(0, splitmix(t << 20 | i) % SEED);
                        let got = tree.read().unwrap().try_get(&k).expect("get");
                        assert!(got.is_some(), "lost seed record");
                    }
                }
            });
        }
    });
    let wall = t0.elapsed();
    tree.into_inner().unwrap().check_invariants();
    let ops = THREADS as u64 * OPS_PER_THREAD;
    let kops = ops as f64 / wall.as_secs_f64() / 1e3;
    println!("mixed 90r/10w t{THREADS} | {ops:>6} ops     | {wall:>9.2?} | {kops:>8.1} kops/s");
    rows.push(Row {
        name: format!("mixed_90r10w_t{THREADS}"),
        ops: ops as usize,
        kops_per_s: kops,
    });
}

fn main() {
    // The paper's update experiment ran on 1M records / 2 K items.
    let s = scale();
    // Use the default scaled dataset (10M/scale) so lists are long enough
    // for the update cost to be data-dominated rather than seek-dominated.
    let base = SyntheticSpec::paper_default(s).generate();
    println!(
        "base dataset: {} records, |I| = {} (paper: 1M, ÷{s})",
        base.len(),
        base.vocab_size
    );

    let mut ratio_rows: Vec<(usize, f64, f64)> = Vec::new();
    println!(
        "\n{:>10} | {:>12} {:>14} | {:>12} {:>14} | {:>6}",
        "batch", "IF total", "IF ms/rec", "OIF total", "OIF ms/rec", "ratio"
    );
    for pct in [2usize, 5, 10, 20] {
        let count = base.len() * pct / 100;
        let batch = fresh_records(&base, count, pct as u64);

        // IF: decode + extend + rewrite the affected lists, then compact.
        // Cost = measured CPU + simulated write/read I/O.
        let mut ifile = invfile::InvertedFile::build(&base);
        ifile.pager().clear_cache();
        ifile.pager().reset_stats();
        let t0 = Instant::now();
        ifile.batch_insert(&batch);
        ifile.pager().clear_cache(); // force write-back of dirty pages
        let if_time = t0.elapsed() + ifile.pager().stats().io_time;

        // OIF: stage in the delta, then merge = re-sort + rebuild. On top
        // of the measured CPU and simulated write I/O, charge the I/O of
        // the external merge sort the paper's setting implies (a 32 KiB
        // cache cannot sort the relation in memory): one pass to read the
        // input, one to write sorted runs, one to read them back for the
        // merge that feeds the build. The in-memory `Dataset` hides those
        // costs from the wall clock.
        let mut oifx = DeltaOif::build(base.clone(), OifConfig::default());
        let t0 = Instant::now();
        oifx.batch_insert(batch.clone());
        oifx.merge();
        let pager = oifx.main().pager().clone();
        pager.clear_cache();
        let relation_pages = base.raw_bytes().div_ceil(4096);
        let pass = pagestore::IoCostModel::default().seq_read * relation_pages as u32;
        let external_sort = 3 * pass;
        let oif_time = t0.elapsed() + pager.stats().io_time + external_sort;

        println!(
            "{:>9}% | {:>12.2?} {:>11.4} ms | {:>12.2?} {:>11.4} ms | {:>5.1}x",
            pct,
            if_time,
            if_time.as_secs_f64() * 1e3 / count as f64,
            oif_time,
            oif_time.as_secs_f64() * 1e3 / count as f64,
            oif_time.as_secs_f64() / if_time.as_secs_f64(),
        );
        ratio_rows.push((
            pct,
            if_time.as_secs_f64() * 1e3 / count as f64,
            oif_time.as_secs_f64() * 1e3 / count as f64,
        ));
    }
    println!("\npaper: OIF updates 3-5x slower than IF, both linear in batch size");

    println!("\nB+-tree write path (one writer in the tree + group commit, fresh hashed keys):");
    let mut rows = Vec::new();
    for writers in [1usize, 2, 4, 8] {
        run_writers(writers, &mut rows);
    }
    run_mixed(&mut rows);
    let t1 = rows.iter().find(|r| r.name == "writers_t1").unwrap();
    for r in rows.iter().filter(|r| r.name.starts_with("writers_t")) {
        if r.name != "writers_t1" {
            println!(
                "{}: {:.2}x over single writer",
                r.name,
                r.kops_per_s / t1.kops_per_s
            );
        }
    }

    if let Some(path) = std::env::var_os("BENCH_JSON") {
        let mut json = String::from("[\n");
        for (pct, if_ms, oif_ms) in &ratio_rows {
            json.push_str(&format!(
                "  {{\"name\": \"updates/batch_{pct}pct\", \"if_ms_per_rec\": {if_ms:.4}, \
                 \"oif_ms_per_rec\": {oif_ms:.4}}},\n",
            ));
        }
        for (i, r) in rows.iter().enumerate() {
            json.push_str(&format!(
                "  {{\"name\": \"updates/{n}\", \"ops\": {ops}, \"kops_per_s\": {k:.2}}}{comma}\n",
                n = r.name,
                ops = r.ops,
                k = r.kops_per_s,
                comma = if i + 1 == rows.len() { "" } else { "," },
            ));
        }
        json.push_str("]\n");
        std::fs::write(&path, json)
            .unwrap_or_else(|e| panic!("cannot write BENCH_JSON {path:?}: {e}"));
    }
}
