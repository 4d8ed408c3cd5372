//! Layer probes that time one layer through its public API alone, on
//! inputs derived from the workload seed.

use crate::inputs::{shuffle, Inputs};
use crate::report::median;
use codec::postings::{decode_postings, encode_postings};
use codec::Posting;
use pagestore::{FileStorage, Pager, StorageError, PAGE_SIZE};
use rand::prelude::*;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Pages in the probe file (8 MiB).
const PROBE_PAGES: u64 = 2048;
const REPS: usize = 7;

/// `Pager::with_page` cost per page on a probe-owned `FileStorage` pool,
/// in seeded random page order: `(hit_ns, miss_ns)`. Hits are timed with
/// every page resident, misses right after `clear_cache`.
pub fn pagestore_ns(dir: &Path, seed: u64) -> Result<(f64, f64), StorageError> {
    let storage = FileStorage::create(dir.join("probe.db"))?;
    let pager = Pager::with_storage(storage, 2 * PROBE_PAGES as usize * PAGE_SIZE);
    let file = pager.create_file();
    let mut page = vec![0u8; PAGE_SIZE];
    for p in 0..PROBE_PAGES {
        let id = pager.allocate_page(file);
        page[..8].copy_from_slice(&p.to_le_bytes());
        pager.write_page(file, id, &page);
    }
    pager.sync()?;
    let mut order: Vec<u64> = (0..PROBE_PAGES).collect();
    shuffle(&mut order, &mut StdRng::seed_from_u64(seed));
    let pass = || {
        let t0 = Instant::now();
        for &p in &order {
            black_box(pager.with_page(file, p, |b| b[0]));
        }
        t0.elapsed().as_nanos() as f64 / PROBE_PAGES as f64
    };
    pass();
    let mut hits: Vec<f64> = (0..REPS).map(|_| pass()).collect();
    let mut misses: Vec<f64> = (0..REPS)
        .map(|_| {
            pager.clear_cache();
            pass()
        })
        .collect();
    Ok((median(&mut hits), median(&mut misses)))
}

/// `decode_postings` cost per posting over the posting lists of every
/// item the query pool asks about, built from the dataset itself (record
/// id and length per posting) and encoded with `encode_postings`.
pub fn codec_decode_ns(inputs: &Inputs) -> f64 {
    let vocab = inputs.dataset.vocab_size;
    let mut wanted = vec![false; vocab];
    for pq in &inputs.pool {
        for &item in &pq.query.qs {
            wanted[item as usize] = true;
        }
    }
    let mut lists: Vec<Vec<Posting>> = vec![Vec::new(); vocab];
    for r in &inputs.dataset.records {
        for &item in &r.items {
            if wanted[item as usize] {
                lists[item as usize].push(Posting::new(r.id, r.items.len() as u32));
            }
        }
    }
    let postings: usize = lists.iter().map(Vec::len).sum();
    let encoded: Vec<Vec<u8>> = lists
        .iter()
        .filter(|l| !l.is_empty())
        .map(|l| encode_postings(l))
        .collect();
    let mut per_posting: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            for buf in &encoded {
                let decoded = decode_postings(black_box(buf)).expect("own encoding decodes");
                black_box(decoded.len());
            }
            t0.elapsed().as_nanos() as f64 / postings as f64
        })
        .collect();
    median(&mut per_posting)
}
