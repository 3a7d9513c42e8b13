//! Micro-benchmarks of the hardware-structure models the simulator leans
//! on per cycle: predictor table operations, load-buffer bookkeeping,
//! segmented allocation, port booking, the LSQ's three searches, cache
//! accesses, and the ring queue. These bound the per-cycle simulation
//! cost and catch accidental algorithmic regressions (e.g. an O(n) slip
//! in a hot path).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lsq_core::{
    LoadBuffer, LoadIssue, Lsq, LsqConfig, PortBook, PredictorKind, SegAlloc, SegmentedAlloc,
    StoreDrain, StoreSetPredictor,
};
use lsq_isa::{Addr, Pc};

use lsq_mem::{Cache, CacheConfig};
use lsq_util::rng::Xoshiro256;
use lsq_util::RingQueue;
use std::hint::black_box;

const OPS: u64 = 4096;

fn predictor(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_set_predictor");
    g.throughput(Throughput::Elements(OPS));
    g.bench_function("fetch_issue_commit_cycle", |b| {
        let mut p = StoreSetPredictor::paper();
        for i in 0..64 {
            p.train_pair(Pc(0x1000 + i * 8), Pc(0x2000 + i * 8));
        }
        let mut seq = 0u64;
        b.iter(|| {
            for i in 0..OPS {
                let pc = Pc(0x2000 + (i % 64) * 8);
                if let Some(ssid) = p.on_store_fetch(pc, seq) {
                    p.on_store_issue(ssid, seq);
                    p.on_store_commit(ssid);
                }
                let lp = p.on_load_fetch(Pc(0x1000 + (i % 64) * 8));
                black_box(p.must_search(lp.ssid));
                seq += 1;
            }
        })
    });
    g.finish();
}

fn load_buffer(c: &mut Criterion) {
    let mut g = c.benchmark_group("load_buffer");
    g.throughput(Throughput::Elements(OPS));
    g.bench_function("dispatch_issue_commit", |b| {
        b.iter(|| {
            let mut lb = LoadBuffer::new(2);
            let mut seq = 0u64;
            for _ in 0..OPS / 4 {
                for _ in 0..4 {
                    lb.on_dispatch(seq, Addr(0x1000 + seq * 8));
                    seq += 1;
                }
                // Issue out of order, then in order.
                let base = seq - 4;
                let _ = lb.try_issue(base + 2);
                let _ = lb.try_issue(base);
                let _ = lb.try_issue(base + 1);
                let _ = lb.try_issue(base + 3);
                for s in base..seq {
                    lb.on_commit(s);
                }
            }
            black_box(lb.searches())
        })
    });
    g.finish();
}

fn segmentation(c: &mut Criterion) {
    let mut g = c.benchmark_group("segmentation");
    g.throughput(Throughput::Elements(OPS));
    for (label, alloc) in [
        ("self_circular", SegAlloc::SelfCircular),
        ("no_self_circular", SegAlloc::NoSelfCircular),
    ] {
        g.bench_function(format!("alloc_free/{label}"), |b| {
            b.iter(|| {
                let mut a = SegmentedAlloc::new(4, 28, alloc);
                let mut live = std::collections::VecDeque::new();
                for _ in 0..OPS {
                    if live.len() < 80 {
                        live.push_back(a.allocate().expect("capacity"));
                    } else {
                        a.free(live.pop_front().expect("live"));
                    }
                }
                black_box(a.occupied())
            })
        });
    }
    g.bench_function("port_book", |b| {
        b.iter(|| {
            let mut book = PortBook::new(4, 2);
            let mut granted = 0u64;
            for i in 0..OPS {
                if i % 3 == 0 {
                    book.begin_cycle();
                }
                if book.try_book(&[(i % 4) as usize, ((i + 1) % 4) as usize]) {
                    granted += 1;
                }
            }
            black_box(granted)
        })
    });
    g.finish();
}

/// The paper's 4 × 28 self-circular segmented LSQ with four ports per
/// segment, so that one search per cycle never stalls.
fn seg_lsq_config(predictor: PredictorKind) -> LsqConfig {
    LsqConfig {
        ports: 4,
        predictor,
        ..LsqConfig::segmented(SegAlloc::SelfCircular)
    }
}

/// A 4 × 28 LSQ holding 100 loads and 60 stores in the program order
/// `L L S L L S L S`, repeated; every fourth load reads the word of the
/// store before it. Returns the queue and the load and store sequence
/// numbers, oldest first. Stores execute first when `stores_issued`,
/// loads first otherwise, so the other kind's searches find issued
/// entries.
fn filled_lsq(cfg: LsqConfig, stores_issued: bool) -> (Lsq, Vec<u64>, Vec<u64>) {
    let mut lsq = Lsq::new(cfg).expect("valid config");
    let (mut loads, mut stores) = (Vec::new(), Vec::new());
    let mut last_store = Addr(0);
    for seq in 0..160u64 {
        let pc = Pc(0x1000 + (seq % 64) * 4);
        if matches!(seq % 8, 2 | 5 | 7) {
            last_store = Addr(0x8_0000 + seq * 8);
            lsq.dispatch_store(seq, pc, last_store);
            stores.push(seq);
        } else {
            let addr = if loads.len() % 4 == 3 {
                last_store
            } else {
                Addr(0x4_0000 + seq * 8)
            };
            lsq.dispatch_load(seq, pc, addr);
            loads.push(seq);
        }
    }
    let first = if stores_issued { &stores } else { &loads };
    for &seq in first {
        lsq.begin_cycle();
        if stores_issued {
            let _ = lsq.store_issue(seq);
        } else {
            assert!(matches!(lsq.load_issue(seq), LoadIssue::Issued(_)));
        }
    }
    (lsq, loads, stores)
}

/// The LSQ's searches on a full paper-sized queue: a load stalled on a
/// busy port (the common case on one-ported segmented queues), loads
/// and stores issuing through their searches, and stores draining
/// through the pair scheme's commit-time search. The batched cases run
/// on a fresh copy of the filled queue; the copy is part of the time.
fn lsq_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("lsq_search");
    let conventional = seg_lsq_config(PredictorKind::None);

    let (mut stalled, loads, _) = filled_lsq(conventional, true);
    // Issue the youngest loads in one cycle until the ports run out.
    let victim = loads
        .iter()
        .rev()
        .copied()
        .find(|&seq| stalled.load_issue(seq) == LoadIssue::NoSqPort)
        .expect("ports run out");
    g.throughput(Throughput::Elements(1));
    g.bench_function("load_issue/port_stalled", |b| {
        b.iter(|| black_box(stalled.load_issue(victim)))
    });

    let (template, loads, _) = filled_lsq(conventional, true);
    g.throughput(Throughput::Elements(loads.len() as u64));
    g.bench_function("load_issue/issued", |b| {
        b.iter(|| {
            let mut lsq = template.clone();
            for &seq in &loads {
                lsq.begin_cycle();
                black_box(lsq.load_issue(seq));
            }
            lsq.stats().sq_searches
        })
    });

    let (template, _, stores) = filled_lsq(conventional, false);
    g.throughput(Throughput::Elements(stores.len() as u64));
    g.bench_function("store_issue", |b| {
        b.iter(|| {
            let mut lsq = template.clone();
            for &seq in &stores {
                lsq.begin_cycle();
                black_box(lsq.store_issue(seq));
            }
            lsq.stats().lq_searches_by_stores
        })
    });

    let (mut template, loads, stores) = filled_lsq(seg_lsq_config(PredictorKind::Pair), true);
    for &seq in &loads {
        template.begin_cycle();
        assert!(matches!(template.load_issue(seq), LoadIssue::Issued(_)));
    }
    g.throughput(Throughput::Elements(stores.len() as u64));
    g.bench_function("drain_store", |b| {
        b.iter(|| {
            let mut lsq = template.clone();
            for &seq in &stores {
                lsq.begin_cycle();
                lsq.store_retire(seq);
                assert!(matches!(lsq.drain_store(), StoreDrain::Drained { .. }));
            }
            lsq.stats().lq_searches_by_stores
        })
    });
    g.finish();
}

fn caches(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.throughput(Throughput::Elements(OPS));
    g.bench_function("l1_access_mixed", |b| {
        let mut cache = Cache::new(CacheConfig {
            size_bytes: 64 << 10,
            ways: 2,
            block_bytes: 32,
            hit_latency: 2,
        });
        let mut rng = Xoshiro256::seed_from_u64(1);
        b.iter(|| {
            let mut hits = 0u64;
            for _ in 0..OPS {
                let addr = Addr(rng.range_u64(128 << 10));
                if cache.access(addr, false) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.finish();
}

fn ring_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("ring_queue");
    g.throughput(Throughput::Elements(OPS));
    // 200 is not a power of two: the slot array rounds up to 256, so the
    // seq → slot mapping stays a mask there too.
    for (id, cap) in [("push_get_pop", 256), ("push_get_pop/200", 200)] {
        g.bench_function(id, |b| {
            b.iter(|| {
                let mut q: RingQueue<u64> = RingQueue::new(cap);
                let mut acc = 0u64;
                for i in 0..OPS {
                    if q.is_full() {
                        acc ^= q.pop().expect("full queue pops").1;
                    }
                    let seq = q.push(i).expect("not full");
                    acc ^= *q.get(seq).expect("just pushed");
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

criterion_group!(
    components,
    predictor,
    load_buffer,
    segmentation,
    lsq_search,
    caches,
    ring_queue
);
criterion_main!(components);
