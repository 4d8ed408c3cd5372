//! Error-injection query sweep: the fallible read path under a faulty
//! medium, end to end over all three index structures.
//!
//! Each index (OIF, classic inverted file, unordered B-tree) is built on
//! its own shadow-paged [`FileStorage`] whose physical I/O runs through a
//! [`FaultFile`](set_containment::pagestore::fault::FaultFile), then the
//! paper's query workloads are replayed while the harness injects
//!
//! * scheduled transient read errors and short reads — absorbed by the
//!   pool's bounded retry, answers bit-for-bit identical;
//! * a seeded flaky medium (roughly one in N reads fails) — every query
//!   either returns the bit-for-bit correct answer or a typed
//!   [`PageError::Transient`], never a wrong answer, never a panic, and
//!   once the medium heals the same queries all succeed;
//! * committed single-bit flips — affected queries fail with
//!   [`PageError::Corrupt`], `scrub()` reports *exactly* the flipped
//!   pages, quarantine outlives the repair until the operator clears it.

use set_containment::datagen::{Dataset, QueryKind, SyntheticSpec, WorkloadSpec};
use set_containment::invfile::InvertedFile;
use set_containment::oif::{DynContainmentIndex, Oif};
use set_containment::pagestore::{
    Clock, FaultConfig, FaultHandle, FaultStorage, FileStorage, PageError, Pager, PAGE_SIZE,
};
use set_containment::ubtree::UnorderedBTree;
use std::sync::Arc;
use std::time::Duration;

/// Backoff time source that spends no wall-clock time: the sweep injects
/// thousands of transient faults and must not sleep through them.
struct NoSleep;
impl Clock for NoSleep {
    fn sleep(&self, _d: Duration) {}
}

fn dataset() -> Dataset {
    SyntheticSpec {
        num_records: 1500,
        vocab_size: 60,
        zipf: 0.8,
        len_min: 1,
        len_max: 10,
        seed: 41,
    }
    .generate()
}

/// The fixed query workload: a few queries of every kind.
fn workload(d: &Dataset) -> Vec<(QueryKind, Vec<Vec<u32>>)> {
    QueryKind::ALL
        .into_iter()
        .map(|kind| {
            let qs = WorkloadSpec {
                kind,
                qs_size: 3,
                count: 6,
                seed: 23,
            }
            .generate(d)
            .queries;
            (kind, qs)
        })
        .collect()
}

/// Build one index of each structure, each on its own faultable durable
/// stack, synced so the on-disk image is committed and no dirty frames
/// remain (read faults then never interact with write-back). The three
/// structures ride in one heterogeneous vec behind the object-safe
/// [`DynContainmentIndex`] erasure — the sweep below is written once.
fn build_all(d: &Dataset) -> Vec<(Box<dyn DynContainmentIndex>, FaultHandle)> {
    let fault_pager = || {
        let (storage, h) = FaultStorage::create(FaultConfig::default()).expect("create in-proc");
        let pager = Pager::with_storage(storage, 32 * 1024);
        pager.set_retry_clock(Arc::new(NoSleep));
        (pager, h)
    };
    let mut out: Vec<(Box<dyn DynContainmentIndex>, FaultHandle)> = Vec::new();

    let (pager, h) = fault_pager();
    let oif = Oif::builder(d).pager(pager).build();
    oif.persist().expect("fault-free persist");
    out.push((Box::new(oif), h));

    let (pager, h) = fault_pager();
    let inv = InvertedFile::builder(d).pager(pager).build();
    inv.persist().expect("fault-free persist");
    out.push((Box::new(inv), h));

    let (pager, h) = fault_pager();
    let ub = UnorderedBTree::builder(d).pager(pager).build();
    ub.persist().expect("fault-free persist");
    out.push((Box::new(ub), h));

    out
}

type Reference = Vec<(QueryKind, Vec<(Vec<u32>, Vec<u64>)>)>;

/// Fault-free reference answers for every (kind, query) pair.
fn reference(idx: &dyn DynContainmentIndex, wl: &[(QueryKind, Vec<Vec<u32>>)]) -> Reference {
    idx.pager().clear_cache();
    wl.iter()
        .map(|(kind, qs)| {
            let answers = qs
                .iter()
                .map(|q| {
                    let a = idx
                        .try_eval(*kind, q)
                        .expect("fault-free evaluation cannot fail");
                    (q.clone(), a)
                })
                .collect();
            (*kind, answers)
        })
        .collect()
}

/// Replay the whole workload; every answer must be bit-for-bit correct
/// (used for the scheduled-fault modes, where retries absorb every fault).
fn assert_all_exact(idx: &dyn DynContainmentIndex, reference: &Reference, ctx: &str) {
    for (kind, qs) in reference {
        for (q, want) in qs {
            let got = idx
                .try_eval(*kind, q)
                .unwrap_or_else(|e| panic!("[{} {ctx}] {kind:?} {q:?}: {e}", idx.kind_name()));
            assert_eq!(&got, want, "[{} {ctx}] {kind:?} {q:?}", idx.kind_name());
        }
    }
}

#[test]
fn scheduled_transient_reads_are_absorbed_by_retries() {
    let d = dataset();
    let wl = workload(&d);
    for (idx, h) in build_all(&d) {
        let reference = reference(idx.as_ref(), &wl);
        // Fail every fourth read in the upcoming window. A retry re-issues
        // the read on the next index, which is clean, so the bounded retry
        // (3 attempts) absorbs every injected fault.
        let cur = h.read_ops();
        h.set_fault_config(FaultConfig {
            transient_reads: (cur..cur + 4096).step_by(4).collect(),
            ..FaultConfig::default()
        });
        idx.pager().clear_cache();
        idx.pager().reset_stats();
        assert_all_exact(idx.as_ref(), &reference, "transient reads");
        assert!(
            idx.pager().stats().retries > 0,
            "[{}] the schedule must actually have fired",
            idx.kind_name()
        );
        assert!(
            idx.pager().degraded().is_none(),
            "[{}] read faults must never degrade the pool",
            idx.kind_name()
        );
    }
}

#[test]
fn scheduled_short_reads_are_classified_transient_and_retried() {
    let d = dataset();
    let wl = workload(&d);
    for (idx, h) in build_all(&d) {
        let reference = reference(idx.as_ref(), &wl);
        let cur = h.read_ops();
        h.set_fault_config(FaultConfig {
            short_reads: (cur..cur + 4096).step_by(4).collect(),
            ..FaultConfig::default()
        });
        idx.pager().clear_cache();
        idx.pager().reset_stats();
        assert_all_exact(idx.as_ref(), &reference, "short reads");
        assert!(
            idx.pager().stats().retries > 0,
            "[{}] the schedule must actually have fired",
            idx.kind_name()
        );
    }
}

/// A fixed seed matrix: deterministic, and aggressive enough (one in three
/// reads fails) that some queries exhaust the bounded retry and surface a
/// typed error — which is exactly what the contract sweep needs to see.
const FLAKY_SEEDS: [u64; 4] = [0xA1, 0x5EED, 0xDEAD_BEEF, 7];

#[test]
fn flaky_medium_never_yields_a_wrong_answer_and_heals_clean() {
    let d = dataset();
    let wl = workload(&d);
    let mut errors = 0u64;
    for (idx, h) in build_all(&d) {
        let reference = reference(idx.as_ref(), &wl);
        for seed in FLAKY_SEEDS {
            h.set_fault_config(FaultConfig::flaky_reads(seed, 3));
            idx.pager().clear_cache();
            for (kind, qs) in &reference {
                for (q, want) in qs {
                    // The contract: bit-for-bit correct, or a typed
                    // transient error. Anything else fails the test (a
                    // panic aborts it, a wrong answer asserts).
                    match idx.try_eval(*kind, q) {
                        Ok(got) => {
                            assert_eq!(
                                &got,
                                want,
                                "[{} seed {seed:#x}] {kind:?} {q:?}",
                                idx.kind_name()
                            )
                        }
                        Err(e) => {
                            assert!(
                                matches!(e, PageError::Transient { .. }),
                                "[{} seed {seed:#x}] {kind:?} {q:?}: flaky reads must \
                                 surface as Transient, got {e}",
                                idx.kind_name()
                            );
                            errors += 1;
                        }
                    }
                }
            }
            // The medium heals: the same queries, retried, all succeed.
            h.set_fault_config(FaultConfig::default());
            idx.pager().clear_cache();
            assert_all_exact(idx.as_ref(), &reference, "healed");
        }
        assert!(
            idx.pager().degraded().is_none(),
            "[{}] read faults must never degrade the pool",
            idx.kind_name()
        );
    }
    assert!(
        errors > 0,
        "the seed matrix must exhaust retries at least once or the \
         error half of the contract was never exercised"
    );
}

#[test]
fn flaky_medium_under_parallel_batches_fails_queries_not_the_batch() {
    let d = dataset();
    let wl = workload(&d);

    let (storage, h) = FaultStorage::create(FaultConfig::default()).expect("create in-proc");
    let pager = Pager::with_storage(storage, 32 * 1024);
    pager.set_retry_clock(Arc::new(NoSleep));
    let idx = Oif::builder(&d).pager(pager).build();
    idx.persist().expect("fault-free persist");

    for (kind, qs) in &wl {
        let want = idx.par_eval(*kind, qs, 4);
        h.set_fault_config(FaultConfig::flaky_reads(0xFA11, 3));
        idx.pager().clear_cache();
        let got = idx.try_par_eval(*kind, qs, 4);
        h.set_fault_config(FaultConfig::default());
        assert_eq!(got.len(), qs.len());
        for (i, r) in got.into_iter().enumerate() {
            match r {
                Ok(a) => assert_eq!(a, want[i], "{kind:?} query {i}"),
                Err(e) => assert!(
                    matches!(e, PageError::Transient { .. }),
                    "{kind:?} query {i}: {e}"
                ),
            }
        }
        // The batch as a whole survives a faulty member: healed, every
        // query answers again.
        idx.pager().clear_cache();
        assert_eq!(idx.par_eval(*kind, qs, 4), want, "{kind:?} healed batch");
    }
}

#[test]
fn write_faults_mid_batch_surface_typed_and_reads_stay_exact() {
    // The write-path leg of the sweep: a medium that stops accepting
    // writes mid-batch must surface as a typed error from
    // `try_batch_insert` — never a panic — leave the index statistics
    // untouched, and keep every read bit-for-bit exact afterwards.
    use set_containment::datagen::Record;
    use set_containment::oif::ContainmentIndex;

    let d = dataset();
    let wl = workload(&d);
    let (storage, h) = FaultStorage::create(FaultConfig::default()).expect("create in-proc");
    let pager = Pager::with_storage(storage, 32 * 1024);
    pager.set_retry_clock(Arc::new(NoSleep));
    let mut inv = InvertedFile::builder(&d).pager(pager.clone()).build();
    inv.persist().expect("fault-free persist");

    let reference: Reference = wl
        .iter()
        .map(|(kind, qs)| {
            let answers = qs
                .iter()
                .map(|q| {
                    let a = ContainmentIndex::try_eval(&inv, *kind, q)
                        .expect("fault-free evaluation cannot fail");
                    (q.clone(), a)
                })
                .collect();
            (*kind, answers)
        })
        .collect();
    let records_before = inv.num_records();
    let supports_before: Vec<u64> = (0..60).map(|i| inv.support(i)).collect();

    // From here every physical write fails. List rewrites evict dirty
    // staged pages through the 8-frame pool, so a batch insert must hit a
    // failed write-back, exhaust the bounded retry and degrade the pool.
    let ops = h.ops();
    h.set_fault_config(FaultConfig {
        transient_writes: (ops..ops + 1_000_000).collect(),
        ..FaultConfig::default()
    });
    let mut failed = None;
    for round in 0..64u64 {
        let base = 100_000 + round * 1000;
        let batch: Vec<Record> = (0..200u64)
            .map(|i| Record::new(base + i, vec![(i % 60) as u32, ((i * 7) % 60) as u32]))
            .collect();
        match inv.try_batch_insert(&batch, 1) {
            Ok(()) => continue,
            Err(e) => {
                failed = Some(e);
                break;
            }
        }
    }
    let err = failed.expect("a dead write medium must fail a batch");
    assert!(
        matches!(
            err,
            PageError::ReadOnly { .. } | PageError::Transient { .. }
        ),
        "write faults must surface typed, got {err}"
    );
    assert!(
        pager.degraded().is_some(),
        "exhausted write-back retries must degrade the pool"
    );

    // The failed batch left no partial state: statistics are exactly the
    // pre-fault values, and a retry is refused up front as ReadOnly.
    assert_eq!(inv.num_records(), records_before, "partial batch applied");
    for (i, &want) in supports_before.iter().enumerate() {
        assert_eq!(inv.support(i as u32), want, "support of item {i} moved");
    }
    assert!(matches!(
        inv.try_batch_insert(&[Record::new(900_000, vec![0])], 1),
        Err(PageError::ReadOnly { .. })
    ));

    // Reads still serve, bit-for-bit — the staged orphan runs are
    // invisible because the directory never saw the failed batch.
    for (kind, qs) in &reference {
        for (q, want) in qs {
            let got = ContainmentIndex::try_eval(&inv, *kind, q)
                .unwrap_or_else(|e| panic!("[write faults] {kind:?} {q:?}: {e}"));
            assert_eq!(&got, want, "[write faults] {kind:?} {q:?}");
        }
    }
}

#[test]
fn write_faults_at_every_op_of_a_ubtree_batch_keep_answers_between_oracles() {
    // The B⁺-tree leg of the write-fault sweep: fail every mutating I/O op
    // from op `k` on, for each `k` a fault-free batch issues. A split
    // writes its fresh right sibling before any existing node, and the
    // existing nodes top-down, so whichever write fails first every record
    // indexed before the batch stays reachable: each answer afterwards lies
    // between the pre-batch and the post-batch brute-force oracles. The
    // one-page cache makes every access an eviction, so write-backs fail
    // between a split's page writes.
    use set_containment::btree::BTreeError;
    use set_containment::datagen::{brute, Record};
    use set_containment::oif::ContainmentIndex;

    let d = SyntheticSpec {
        num_records: 4000,
        vocab_size: 24,
        zipf: 0.8,
        len_min: 1,
        len_max: 8,
        seed: 5,
    }
    .generate();
    let batch: Vec<Record> = (0..1500u32)
        .map(|i| {
            Record::new(
                10_000 + u64::from(i),
                vec![i % 24, i * 7 % 24, (i * 5 + 3) % 24],
            )
        })
        .collect();
    let mut after = d.clone();
    after.records.extend(batch.iter().cloned());
    // Every item's whole list (a one-item subset query), plus mixed kinds.
    let mut queries: Vec<(QueryKind, Vec<u32>)> =
        (0..24).map(|i| (QueryKind::Subset, vec![i])).collect();
    for (kind, qs) in workload(&after) {
        queries.extend(qs.into_iter().map(|q| (kind, q)));
    }
    let oracle = |d: &Dataset, kind: QueryKind, q: &[u32]| match kind {
        QueryKind::Subset => brute::subset(d, q),
        QueryKind::Equality => brute::equality(d, q),
        QueryKind::Superset => brute::superset(d, q),
    };
    // Per query: the pre-batch and the post-batch answer.
    let bounds: Vec<(Vec<u64>, Vec<u64>)> = queries
        .iter()
        .map(|(kind, q)| (oracle(&d, *kind, q), oracle(&after, *kind, q)))
        .collect();
    // Build and persist once; every run reopens the committed image.
    let image = {
        let (storage, h) = FaultStorage::create(FaultConfig::default()).expect("create in-proc");
        let ub = UnorderedBTree::builder(&d)
            .pager(Pager::with_storage(storage, PAGE_SIZE))
            .build();
        ub.persist().expect("fault-free persist");
        h.disk_image()
    };
    let reopen = || {
        let (storage, h) =
            FaultStorage::open_image(image.clone(), FaultConfig::default()).expect("reopen");
        let pager = Pager::with_storage(storage, PAGE_SIZE);
        pager.set_retry_clock(Arc::new(NoSleep));
        (UnorderedBTree::open(pager).expect("committed catalog"), h)
    };

    // Fault-free dry run: how many mutating ops the batch issues.
    let (mut ub, h) = reopen();
    let start = h.ops();
    ub.try_batch_insert(&batch).expect("fault-free batch");
    let batch_ops = h.ops() - start;
    assert!(
        batch_ops > 0,
        "the batch must write back through the 1-page cache"
    );

    for k in 0..batch_ops {
        let (mut ub, h) = reopen();
        let ops = h.ops();
        // Every write from op `k` on fails (a degraded pool issues no more
        // write-backs, so twice the fault-free count is plenty).
        h.set_fault_config(FaultConfig {
            transient_writes: (ops + k..ops + 2 * batch_ops).collect(),
            ..FaultConfig::default()
        });
        match ub.try_batch_insert(&batch) {
            Err(BTreeError::Page(_)) => {}
            Err(e) => panic!("op {k}: untyped batch failure {e}"),
            // The failed write-back was the batch's last access, which
            // itself completed in cache: the persist must refuse instead.
            Ok(()) => assert!(ub.persist().is_err(), "op {k}: persist on a dead medium"),
        }
        assert!(ub.pager().degraded().is_some(), "op {k}: pool must degrade");
        for ((kind, q), (pre, post)) in queries.iter().zip(&bounds) {
            let mut got = ContainmentIndex::try_eval(&ub, *kind, q)
                .unwrap_or_else(|e| panic!("op {k}: {kind:?} {q:?}: {e}"));
            got.sort_unstable();
            let lost = pre.iter().find(|id| got.binary_search(id).is_err());
            assert_eq!(lost, None, "op {k}: {kind:?} {q:?} lost a record");
            let phantom = got.iter().find(|id| post.binary_search(id).is_err());
            assert_eq!(phantom, None, "op {k}: {kind:?} {q:?} phantom record");
        }
    }
}

#[test]
fn bit_flips_quarantine_and_scrub_reports_exactly_them() {
    let d = dataset();
    let wl = workload(&d);
    for (idx, h) in build_all(&d) {
        let reference = reference(idx.as_ref(), &wl);

        // Locate committed page slots in the on-disk image and flip one
        // bit inside every other slot: committed, silent bit rot.
        let layout = FileStorage::layout_image(&h.disk_image()).expect("committed image");
        let committed: Vec<(u64, u64)> = layout
            .pages
            .iter()
            .enumerate()
            .filter_map(|(phys, slot)| slot.map(|off| (phys as u64, off)))
            .collect();
        assert!(
            committed.len() >= 4,
            "[{}] degenerate index",
            idx.kind_name()
        );
        let flipped: Vec<(u64, u64)> = committed.iter().copied().step_by(2).collect();
        for &(_, off) in &flipped {
            h.flip_bit(off + 37, 3);
        }
        let mut flipped_phys: Vec<u64> = flipped.iter().map(|&(p, _)| p).collect();
        flipped_phys.sort_unstable();

        // Contract under corruption: correct answer or typed Corrupt error.
        idx.pager().clear_cache();
        let mut corrupt_errors = 0u64;
        for (kind, qs) in &reference {
            for (q, want) in qs {
                match idx.try_eval(*kind, q) {
                    Ok(got) => assert_eq!(&got, want, "[{}] {kind:?} {q:?}", idx.kind_name()),
                    Err(e) => {
                        assert!(
                            matches!(e, PageError::Corrupt { .. }),
                            "[{}] {kind:?} {q:?}: bit rot must surface as Corrupt, got {e}",
                            idx.kind_name()
                        );
                        corrupt_errors += 1;
                    }
                }
            }
        }
        assert!(
            corrupt_errors > 0,
            "[{}] with every other page corrupted some query must hit one",
            idx.kind_name()
        );

        // Scrub finds exactly the flipped pages — no more, no fewer.
        let report = idx.scrub();
        let mut found: Vec<u64> = report.corrupt.iter().map(|f| f.phys).collect();
        found.sort_unstable();
        assert_eq!(
            found,
            flipped_phys,
            "[{}] scrub corrupt set",
            idx.kind_name()
        );
        assert!(report.unreadable.is_empty(), "[{}]", idx.kind_name());
        let mut quarantined: Vec<u64> = report.quarantined.iter().map(|&(_, _, p)| p).collect();
        quarantined.sort_unstable();
        assert_eq!(
            quarantined,
            flipped_phys,
            "[{}] quarantine set",
            idx.kind_name()
        );

        // Repair the medium (flip the bits back). Quarantine must outlive
        // the repair: the damaged pages stay fenced until the operator
        // clears them.
        for &(_, off) in &flipped {
            h.flip_bit(off + 37, 3);
        }
        idx.pager().clear_cache();
        let (qf, qp, _) = report.quarantined[0];
        match idx.pager().try_pin_page(qf, qp) {
            Err(PageError::Corrupt { .. }) => {}
            Err(e) => panic!(
                "[{}] expected Corrupt from quarantine, got {e}",
                idx.kind_name()
            ),
            Ok(_) => panic!(
                "[{}] quarantined page served after repair without operator clearance",
                idx.kind_name()
            ),
        }

        // Operator clears the quarantine: everything serves again and a
        // fresh scrub is clean.
        assert_eq!(idx.pager().clear_quarantine(), flipped_phys.len());
        idx.pager().clear_cache();
        assert_all_exact(idx.as_ref(), &reference, "repaired");
        let healed = idx.scrub();
        assert!(healed.is_clean(), "[{}] {healed}", idx.kind_name());
    }
}
