//! Property and integration tests for durable checkpoints.
//!
//! For randomized alias-heavy loops — overlapping affine writes plus
//! colliding indirect scatters, mirroring `journal_props.rs` — a
//! checkpoint (base snapshot + ordered write-set deltas) loaded back
//! from disk must restore the arena **bitwise** at every commit
//! boundary. The oracle is a byte-for-byte comparison against the live
//! arena, so an under-captured delta cannot hide. Corrupted, torn and
//! stale checkpoints must be refused with the matching typed error —
//! never partially restored.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use cascade_rt::{
    ckpt, try_run_governed_sequence, CkptError, CkptMeta, CkptPolicy, CkptSink, CkptWriter,
    RealKernel, RtPolicy, RunConfig, RunError, RunnerConfig, SpecProgram,
};
use cascade_trace::to_text;
use proptest::collection::vec;
use proptest::prelude::*;

mod common;
use common::{raw_shape, RawShape};

#[derive(Debug, Clone)]
struct Scenario {
    iters: u64,
    shapes: Vec<RawShape>,
    /// Commit-boundary spacing: one delta per `chunk_iters` iterations.
    chunk_iters: u64,
}

// FNV-1a 64 — the checkpoint manifest's checksum; the shared
// `cascade-core` helper lets the stale-spec test forge an otherwise
// self-consistent manifest.
use cascade_core::fnv64;

static CASE: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let id = CASE.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "cascade-ckpt-props-{tag}-{}-{id}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (64u64..200, vec(raw_shape(), 1..4), 16u64..48).prop_map(|(iters, shapes, chunk_iters)| {
        Scenario {
            iters,
            shapes,
            chunk_iters,
        }
    })
}

fn build(s: &Scenario) -> SpecProgram {
    common::build("ckpt-prop", s.iters, &s.shapes)
}

/// Execute the scenario's loop to completion, chunk by chunk, publishing
/// a delta at every commit boundary — the leader's commit path, minus
/// the threads. Returns the checkpoint directory and the final arena.
fn write_checkpoint(tag: &str, s: &Scenario) -> (PathBuf, Vec<u8>) {
    let dir = tmpdir(tag);
    let mut live = build(s);
    let text = to_text(live.workload());
    let base = live.arena_mut().bytes().to_vec();
    let mut w = CkptWriter::create(
        &dir,
        &text,
        CkptMeta {
            loop_index: 0,
            iters: s.iters,
            iters_per_chunk: s.chunk_iters,
        },
        &base,
    )
    .expect("writer creation");
    let mut jbuf = Vec::new();
    let mut from = 0u64;
    let mut chunk = 0u64;
    while from < s.iters {
        let to = (from + s.chunk_iters).min(s.iters);
        {
            let k = live.kernel(0);
            // SAFETY: single-threaded test, trivially exclusive.
            unsafe { k.execute(from..to) };
            // SAFETY: as above; post-state capture over the chunk.
            assert!(unsafe { k.journal_capture(from..to, &mut jbuf) });
        }
        w.append_delta(chunk, chunk + 1, from, to, &jbuf)
            .expect("delta append");
        from = to;
        chunk += 1;
    }
    let bytes = live.arena_mut().bytes().to_vec();
    (dir, bytes)
}

fn fixed_scenario() -> Scenario {
    Scenario {
        iters: 160,
        shapes: vec![
            RawShape::Scatter { seed: 3 },
            RawShape::Affine {
                base: 5,
                stride: 2,
                modify: true,
            },
        ],
        chunk_iters: 32,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Loading the checkpoint back from disk at EVERY commit boundary
    /// restores the live arena bitwise: base snapshot plus ordered
    /// deltas loses nothing, even with aliasing within and across
    /// chunks (later deltas re-cover earlier footprints).
    #[test]
    fn restore_is_bitwise_at_every_commit_boundary(s in scenario()) {
        let dir = tmpdir("boundary");
        let mut live = build(&s);
        let text = to_text(live.workload());
        let base = live.arena_mut().bytes().to_vec();
        let mut w = CkptWriter::create(
            &dir,
            &text,
            CkptMeta { loop_index: 0, iters: s.iters, iters_per_chunk: s.chunk_iters },
            &base,
        ).expect("writer creation");
        let mut jbuf = Vec::new();
        let mut from = 0u64;
        let mut chunk = 0u64;
        while from < s.iters {
            let to = (from + s.chunk_iters).min(s.iters);
            {
                let k = live.kernel(0);
                // SAFETY: single-threaded test, trivially exclusive.
                unsafe { k.execute(from..to) };
                // SAFETY: as above; post-state capture over the chunk.
                prop_assert!(unsafe { k.journal_capture(from..to, &mut jbuf) },
                    "affine and index-store-bounded write-sets must be journalable");
            }
            w.append_delta(chunk, chunk + 1, from, to, &jbuf).expect("delta append");

            let ck = ckpt::load(&dir).expect("published checkpoint must load");
            prop_assert_eq!(ck.committed_iters(), to);
            let (mut restored, at) = ck.into_program().expect("restore");
            prop_assert_eq!(at, to);
            prop_assert_eq!(
                restored.arena_mut().bytes(), live.arena_mut().bytes(),
                "restored arena diverged from the live arena at commit boundary {}", to
            );
            from = to;
            chunk += 1;
        }
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn governed_checkpointed_run_restores_bitwise_from_disk() {
    // The real commit path this time: a governed cascaded run with
    // checkpointing every chunk must leave a checkpoint that restores —
    // purely from disk — to exactly what straight sequential produces.
    let s = fixed_scenario();
    let mut reference = build(&s);
    {
        let k = reference.kernel(0);
        cascade_rt::run_sequential(&k);
    }
    let want = reference.arena_mut().bytes().to_vec();

    let mut prog = build(&s);
    let text = to_text(prog.workload());
    let base = prog.arena_mut().bytes().to_vec();
    let dir = tmpdir("governed");
    let writer = CkptWriter::create(
        &dir,
        &text,
        CkptMeta {
            loop_index: 0,
            iters: s.iters,
            iters_per_chunk: s.chunk_iters,
        },
        &base,
    )
    .expect("writer creation");
    let sink = CkptSink::new(writer, CkptPolicy::EveryChunks(1));
    let cfg = RunConfig {
        runner: RunnerConfig {
            nthreads: 3,
            iters_per_chunk: s.chunk_iters,
            policy: RtPolicy::Restructure,
            poll_batch: 8,
        },
        ckpt_sink: Some(sink.clone()),
        ..RunConfig::default()
    };
    {
        let k = prog.kernel(0);
        cascade_rt::try_run_governed(&k, &cfg).expect("governed run");
    }
    assert_eq!(sink.error(), None);
    assert_eq!(sink.committed().1, s.iters);

    let ck = ckpt::load(&dir).expect("load");
    let (mut restored, at) = ck.into_program().expect("restore");
    assert_eq!(at, s.iters);
    assert_eq!(restored.arena_mut().bytes(), want.as_slice());
    fs::remove_dir_all(&dir).ok();
}

/// A checkpoint manifest describes one loop, so a sequence of two is
/// refused with a typed error before any worker spawns — while a sequence
/// of one *is* a single loop and checkpoints like one.
#[test]
fn sequence_checkpoint_gate_admits_exactly_one_loop() {
    let s = fixed_scenario();
    let ckpt_cfg = |tag: &str, prog: &mut SpecProgram| {
        let text = to_text(prog.workload());
        let base = prog.arena_mut().bytes().to_vec();
        let dir = tmpdir(tag);
        let meta = CkptMeta {
            loop_index: 0,
            iters: s.iters,
            iters_per_chunk: s.chunk_iters,
        };
        let sink = CkptSink::new(
            CkptWriter::create(&dir, &text, meta, &base).expect("writer"),
            CkptPolicy::EveryChunks(1),
        );
        let cfg = RunConfig {
            runner: RunnerConfig {
                nthreads: 2,
                iters_per_chunk: s.chunk_iters,
                policy: RtPolicy::None,
                poll_batch: 8,
            },
            ckpt_sink: Some(sink.clone()),
            ..RunConfig::default()
        };
        (dir, sink, cfg)
    };

    let mut prog = build(&s);
    let before = prog.arena_mut().bytes().to_vec();
    let (dir, sink, cfg) = ckpt_cfg("seq-gate-two", &mut prog);
    match try_run_governed_sequence(&[prog.kernel(0), prog.kernel(0)], &cfg) {
        Err(RunError::InvalidConfig(msg)) => assert!(msg.contains("single governed loop"), "{msg}"),
        other => panic!("two checkpointed loops must be refused, got {other:?}"),
    }
    assert_eq!(sink.committed(), (0, 0), "nothing may be published");
    assert_eq!(prog.arena_mut().bytes(), before, "no worker may have run");
    fs::remove_dir_all(&dir).ok();

    let mut prog = build(&s);
    let (dir, sink, cfg) = ckpt_cfg("seq-gate-one", &mut prog);
    let stats = try_run_governed_sequence(&[prog.kernel(0)], &cfg).expect("a sequence of one");
    assert_eq!(stats.len(), 1);
    assert_eq!(sink.error(), None);
    assert_eq!(sink.committed(), (stats[0].chunks, s.iters));
    assert_eq!(ckpt::load(&dir).expect("load").committed_iters(), s.iters);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_millis_policy_resumes_bitwise_from_the_last_checkpoint() {
    // Time-based cadence: the run may publish anywhere from zero to all
    // deltas. Whatever survives, restoring and finishing the tail
    // sequentially must land on the straight-sequential bytes.
    let s = fixed_scenario();
    let mut reference = build(&s);
    {
        let k = reference.kernel(0);
        cascade_rt::run_sequential(&k);
    }
    let want = reference.arena_mut().bytes().to_vec();

    let mut prog = build(&s);
    let text = to_text(prog.workload());
    let base = prog.arena_mut().bytes().to_vec();
    let dir = tmpdir("millis");
    let writer = CkptWriter::create(
        &dir,
        &text,
        CkptMeta {
            loop_index: 0,
            iters: s.iters,
            iters_per_chunk: s.chunk_iters,
        },
        &base,
    )
    .expect("writer creation");
    let cfg = RunConfig {
        runner: RunnerConfig {
            nthreads: 2,
            iters_per_chunk: s.chunk_iters,
            policy: RtPolicy::Restructure,
            poll_batch: 8,
        },
        ckpt_sink: Some(CkptSink::new(writer, CkptPolicy::EveryMillis(1))),
        ..RunConfig::default()
    };
    {
        let k = prog.kernel(0);
        cascade_rt::try_run_governed(&k, &cfg).expect("governed run");
    }

    let ck = ckpt::load(&dir).expect("load");
    let (mut restored, at) = ck.into_program().expect("restore");
    assert!(at <= s.iters);
    {
        let k = restored.kernel(0);
        // SAFETY: single-threaded — the documented sequential resume.
        unsafe { k.execute(at..k.iters()) };
    }
    assert_eq!(restored.arena_mut().bytes(), want.as_slice());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flipped_delta_is_rejected() {
    let (dir, _) = write_checkpoint("flip", &fixed_scenario());
    let p = dir.join("delta-000001.bin");
    let mut b = fs::read(&p).expect("delta file");
    let mid = b.len() / 2;
    b[mid] ^= 0x40;
    fs::write(&p, &b).unwrap();
    match ckpt::load(&dir) {
        Err(CkptError::Corrupt(m)) => assert!(m.contains("delta-000001.bin"), "{m}"),
        other => panic!("bit-flipped delta must be Corrupt, got {other:?}"),
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_base_snapshot_is_rejected() {
    let (dir, _) = write_checkpoint("trunc-base", &fixed_scenario());
    let p = dir.join("base.bin");
    let b = fs::read(&p).expect("base file");
    fs::write(&p, &b[..b.len() - 8]).unwrap();
    match ckpt::load(&dir) {
        Err(CkptError::Corrupt(m)) => assert!(m.contains("base.bin"), "{m}"),
        other => panic!("truncated base must be Corrupt, got {other:?}"),
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_manifest_is_rejected() {
    // Simulate a torn write of the manifest itself (a crash the atomic
    // rename is designed to prevent, and the self-checksum to catch if
    // the filesystem lies): drop the tail.
    let (dir, _) = write_checkpoint("torn", &fixed_scenario());
    let p = dir.join("MANIFEST");
    let b = fs::read(&p).expect("manifest");
    fs::write(&p, &b[..b.len() - 10]).unwrap();
    match ckpt::load(&dir) {
        Err(CkptError::Corrupt(_)) => {}
        other => panic!("torn manifest must be Corrupt, got {other:?}"),
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_spec_hash_is_rejected() {
    // Forge an otherwise self-consistent manifest — workload record and
    // trailing self-checksum recomputed over an edited workload file —
    // but keep the original spec_hash binding. The deltas were captured
    // under a different LoopSpec, so resume must refuse.
    let (dir, _) = write_checkpoint("stale", &fixed_scenario());
    let wpath = dir.join("workload.txt");
    let mut text = fs::read_to_string(&wpath).expect("workload text");
    text.push('\n');
    fs::write(&wpath, &text).unwrap();

    let manifest = fs::read_to_string(dir.join("MANIFEST")).expect("manifest");
    let mut lines: Vec<String> = manifest.lines().map(str::to_string).collect();
    assert!(lines.pop().is_some_and(|l| l.starts_with("checksum ")));
    for l in lines.iter_mut() {
        if l.starts_with("workload ") {
            *l = format!(
                "workload workload.txt {} {:016x}",
                text.len(),
                fnv64(text.as_bytes())
            );
        }
    }
    let mut m = lines.join("\n");
    m.push('\n');
    m.push_str(&format!("checksum {:016x}\n", fnv64(m.as_bytes())));
    fs::write(dir.join("MANIFEST"), m).unwrap();

    match ckpt::load(&dir) {
        Err(CkptError::SpecMismatch(_)) => {}
        other => panic!("stale spec hash must be SpecMismatch, got {other:?}"),
    }
    fs::remove_dir_all(&dir).ok();
}
