//! Per-layer replays of the traced run: each layer's public function is
//! called over a corpus of the workload's own reachable states, outside
//! the timed run, and timed from here.
//!
//! Caveats the numbers carry:
//!
//! * `mc.successor_ns` times `successor_state`, the clone-per-step cold
//!   path — an upper bound on the scratch-stepping path the explorer
//!   uses, which no public call reaches.
//! * `mc.unattributed_ns_per_state` is the residue of `mc.run_ns_per_state`
//!   after steps, canonical encode and decode are taken out: successor
//!   generation on the scratch path, dedup, store, ship, rendezvous and
//!   spill — everything not reachable through a public call.

use crate::sizes::DIR_SHARDS;
use crate::trace::Tracer;
use crate::workloads::Ctx;
use protogen::gen::{generate, GenConfig, Generated};
use protogen::mc::{
    apply_delta, encode_delta, fingerprint_bytes, Canonicalizer, McConfig, ModelChecker, SysState,
};
use protogen::runtime::{
    apply_into, select_arc_indexed, ApplyOutcome, CacheBlock, FsmIndex, MachineCtx, Msg, NodeId,
};
use protogen::serve::mailbox::{Envelope, Fabric, Ring};
use protogen::serve::{serve, ServeConfig};
use protogen::sim::Workload as SimWorkload;
use protogen::spec::{Access, Event, MsgId};
use std::collections::BTreeMap;
use std::hint::black_box;

type Layer = BTreeMap<&'static str, f64>;

fn mean_ns(tr: &Tracer, span: &str, calls: usize) -> f64 {
    tr.total(span).total_ns as f64 / calls.max(1) as f64
}

/// The checker-layer replays over a sample of the flat space `mc` checks.
pub fn flat_replays(
    layer: &mut Layer,
    mc: &ModelChecker,
    g: &Generated,
    cx: &Ctx,
    with_delta: bool,
    tr: &mut Tracer,
) {
    let n = cx.sizes.verify_caches;
    let corpus = tr.span("harness.sample_corpus", |_| mc.sample_states(cx.sizes.corpus_states));

    let steps = tr.span("mc.steps", |_| corpus.iter().map(|s| mc.steps(s)).collect::<Vec<_>>());
    layer.insert("mc.steps_ns", mean_ns(tr, "mc.steps", corpus.len()));

    // Successors of consecutive states, in generation order: what a
    // frontier arena holds, before canonicalization.
    let mut calls = 0usize;
    let mut successors: Vec<SysState> = Vec::with_capacity(cx.sizes.corpus_states);
    tr.span("mc.successor", |_| {
        for (s, steps) in corpus.iter().zip(&steps) {
            for &step in steps {
                calls += 1;
                if let Ok(Some(next)) = mc.successor_state(s, step) {
                    if successors.len() < cx.sizes.corpus_states {
                        successors.push(next);
                    }
                }
            }
        }
    });
    layer.insert("mc.successor_ns", mean_ns(tr, "mc.successor", calls));

    let mut canon = Canonicalizer::new(n, true);
    tr.span("mc.canon_fp", |_| {
        for s in &successors {
            black_box(canon.canonical_fp(s));
        }
    });
    layer.insert("mc.canon_fp_ns", mean_ns(tr, "mc.canon_fp", successors.len()));
    let candidates: usize = successors.iter().map(|s| canon.pruned_candidates(s)).sum();
    layer.insert("mc.canon_candidates_mean", candidates as f64 / successors.len().max(1) as f64);

    let mut buf: Vec<u8> = Vec::new();
    let mut bytes = 0usize;
    tr.span("mc.encode_canonical", |_| {
        for s in &successors {
            buf.clear();
            black_box(canon.encode_canonical_into(s, &mut buf));
            bytes += buf.len();
        }
    });
    layer.insert("mc.encode_canonical_ns", mean_ns(tr, "mc.encode_canonical", successors.len()));
    layer.insert("mc.encode_bytes_per_state", bytes as f64 / successors.len().max(1) as f64);
    let encodings: Vec<Vec<u8>> = successors
        .iter()
        .map(|s| {
            let mut e = Vec::new();
            canon.encode_canonical_into(s, &mut e);
            e
        })
        .collect();

    let mut scratch = SysState::initial(n);
    tr.span("mc.decode", |_| {
        for e in &encodings {
            scratch.decode_into(e, n);
            black_box(&scratch);
        }
    });
    layer.insert("mc.decode_ns", mean_ns(tr, "mc.decode", encodings.len()));

    tr.span("mc.fingerprint", |_| {
        for e in &encodings {
            black_box(fingerprint_bytes(e));
        }
    });
    layer.insert("mc.fingerprint_ns", mean_ns(tr, "mc.fingerprint", encodings.len()));

    if with_delta {
        let pairs = encodings.len().saturating_sub(1);
        let mut deltas: Vec<Vec<u8>> = Vec::with_capacity(pairs);
        let mut out = Vec::new();
        let (mut delta_bytes, mut full_bytes) = (0usize, 0usize);
        tr.span("mc.delta_encode", |_| {
            for w in encodings.windows(2) {
                out.clear();
                encode_delta(n, &w[0], &w[1], &mut out);
                delta_bytes += out.len();
                full_bytes += w[1].len();
                deltas.push(out.clone());
            }
        });
        tr.span("mc.delta_apply", |_| {
            for (w, d) in encodings.windows(2).zip(&deltas) {
                out.clear();
                apply_delta(n, &w[0], d, &mut out);
                black_box(&out);
            }
        });
        layer.insert("mc.delta_encode_ns", mean_ns(tr, "mc.delta_encode", pairs));
        layer.insert("mc.delta_apply_ns", mean_ns(tr, "mc.delta_apply", pairs));
        layer.insert("mc.delta_ratio", delta_bytes as f64 / full_bytes.max(1) as f64);
    }

    apply_into_over(layer, g, &corpus, tr);

    let get = |k: &str| layer.get(k).copied().unwrap_or(0.0);
    let attributed = get("mc.steps_ns")
        + get("mc.transitions_per_state") * get("mc.encode_canonical_ns")
        + get("mc.decode_ns");
    layer.insert("mc.unattributed_ns_per_state", get("mc.run_ns_per_state") - attributed);
}

/// `runtime.apply_into_ns`: `select_arc_indexed` + scratch `clone_from` +
/// `apply_into` for every cache block × access of the corpus — the call
/// shape `serve`'s issue path uses.
fn apply_into_over(layer: &mut Layer, g: &Generated, corpus: &[SysState], tr: &mut Tracer) {
    let idx = FsmIndex::new(&g.cache);
    let per_pass: usize = corpus.iter().map(|s| s.caches.len() * Access::ALL.len()).sum();
    let passes = (200_000 / per_pass.max(1)).max(1);
    let mut scratch = CacheBlock::new();
    let mut out = ApplyOutcome::default();
    tr.span("runtime.apply_into", |_| {
        for _ in 0..passes {
            for s in corpus {
                let dir_id = NodeId(s.caches.len() as u8);
                for (i, block) in s.caches.iter().enumerate() {
                    for a in Access::ALL {
                        let ev = Event::Access(a);
                        let arc = select_arc_indexed(
                            &g.cache,
                            &idx,
                            block.state,
                            ev,
                            None,
                            Some(block),
                            None,
                        );
                        if let Some(arc) = arc {
                            scratch.clone_from(block);
                            let ctx = MachineCtx::Cache {
                                block: &mut scratch,
                                self_id: NodeId(i as u8),
                                dir_id,
                            };
                            // A state error here is the protocol's, not
                            // the replay's; the checker reports those.
                            let _ = black_box(apply_into(&g.cache, arc, None, ctx, 0, &mut out));
                        }
                    }
                }
            }
        }
    });
    layer.insert("runtime.apply_into_ns", mean_ns(tr, "runtime.apply_into", per_pass * passes));
}

/// `runtime.apply_into_ns` for the executors that do not build a checker of
/// their own: samples the flat space at their cache count.
pub fn apply_into_replay(
    layer: &mut Layer,
    g: &Generated,
    caches: usize,
    cx: &Ctx,
    tr: &mut Tracer,
) {
    let mut cfg = McConfig::with_caches_and_threads(caches, 1);
    cfg.ordered = g.ssp.network_ordered;
    let mc = ModelChecker::new(&g.cache, &g.directory, cfg);
    let corpus = tr.span("harness.sample_corpus", |_| mc.sample_states(cx.sizes.corpus_states));
    apply_into_over(layer, g, &corpus, tr);
}

/// The 2-cache canonicalizer, where `gen_many` spends its checker time.
pub fn small_canon_replay(layer: &mut Layer, cx: &Ctx, tr: &mut Tracer) {
    let g = generate(&protogen::protocols::mesi(), &GenConfig::non_stalling())
        .expect("bundled protocol generates");
    let mc = ModelChecker::new(&g.cache, &g.directory, McConfig::with_caches_and_threads(2, 1));
    let corpus = tr.span("harness.sample_corpus", |_| mc.sample_states(cx.sizes.corpus_states));
    let mut canon = Canonicalizer::new(2, true);
    tr.span("mc.canon_fp", |_| {
        for s in &corpus {
            black_box(canon.canonical_fp(s));
        }
    });
    layer.insert("mc.canon_fp_ns", mean_ns(tr, "mc.canon_fp", corpus.len()));
    let candidates: usize = corpus.iter().map(|s| canon.pruned_candidates(s)).sum();
    layer.insert("mc.canon_candidates_mean", candidates as f64 / corpus.len().max(1) as f64);
}

fn envelope() -> Envelope {
    let msg = Msg {
        mtype: MsgId(0),
        src: NodeId(0),
        dst: NodeId(1),
        req: NodeId(0),
        ack_count: None,
        data: Some(1),
    };
    Envelope { addr: 0, msg }
}

/// Waits for `ready()`; spins briefly, then yields so a one-core host
/// still makes progress.
fn wait_until(mut ready: impl FnMut() -> bool) {
    let mut spins = 0u32;
    while !ready() {
        spins += 1;
        if spins.is_multiple_of(64) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The mailbox alone: one-thread push + pop on a `Ring`, and a two-thread
/// ping-pong over `Fabric::try_send` / `take_ready` (the wake/poll cost of
/// one hop; a `serve_miss` transaction is two hops).
pub fn mailbox_replays(layer: &mut Layer, cx: &Ctx, tr: &mut Tracer) {
    let trips = cx.sizes.mailbox_round_trips;
    let env = envelope();

    let ring = Ring::new(64);
    let ops = trips * 10;
    tr.span("serve.mailbox_push_pop", |_| {
        for _ in 0..ops {
            black_box(ring.push(black_box(env)).is_ok());
            black_box(ring.pop());
        }
    });
    layer.insert("serve.mailbox_push_pop_ns", mean_ns(tr, "serve.mailbox_push_pop", ops));

    let fabric = Fabric::new(2, 64);
    std::thread::scope(|scope| {
        let echo = scope.spawn(|| {
            for _ in 0..trips {
                wait_until(|| fabric.take_ready(1) & 1 != 0);
                let e = fabric.ring(0, 1).pop().expect("ready bit follows the push");
                fabric.try_send(1, 0, e).expect("one envelope in flight");
            }
        });
        tr.span("serve.mailbox_xthread_rtt", |_| {
            for _ in 0..trips {
                fabric.try_send(0, 1, env).expect("one envelope in flight");
                wait_until(|| fabric.take_ready(0) & 2 != 0);
                black_box(fabric.ring(1, 0).pop());
            }
        });
        echo.join().expect("echo thread");
    });
    layer.insert("serve.mailbox_xthread_rtt_ns", mean_ns(tr, "serve.mailbox_xthread_rtt", trips));
}

/// One `Workload::Private` run: the uncontended hit loop, which per-op
/// telemetry must not slow.
pub fn hit_path_run(layer: &mut Layer, g: &Generated, caches: usize, cx: &Ctx, tr: &mut Tracer) {
    let mut cfg = ServeConfig::new(caches);
    cfg.dir_shards = DIR_SHARDS;
    cfg.n_addrs = caches;
    cfg.total_ops = cx.sizes.serve_hit_ops;
    cfg.workload = SimWorkload::Private;
    cfg.seed = cx.seed;
    let r = tr.span("serve.hit_path", |_| serve(&g.cache, &g.directory, &cfg));
    if let Ok(r) = r {
        layer.insert("serve.hit_path_ns_per_op", r.seconds * 1e9 / r.ops.max(1) as f64);
    }
}
