//! Differential property tests for the compiled interpreter.
//!
//! The interpreter resolves every `LoopSpec` once into an op table and
//! runs one loop body behind `execute`, `execute_packed` and
//! `replay_footprint`. The oracle here is the body as it was written
//! before that: per iteration it re-matches each ref's `Pattern`, resolves
//! elements through the `AddressSpace`, and reads and writes an `Arena`
//! through its safe, bounds-checked accessors. It shares no code with the
//! interpreter, so agreement is evidence and not a tautology.
//!
//! Specs are randomized and alias-heavy: both operand widths, negative and
//! non-unit strides, gathers, several write refs into one array (`Write`
//! and `Modify` mixed, affine and colliding scatters), and an optional
//! carried recurrence that puts the loop under a helper horizon. The
//! interpreter dispatches on a loop's (reads, writes) counts, so one
//! deterministic spec per dispatched count and one past them pin every arm
//! and the slice fallback, at both widths.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use cascade_rt::{RealKernel, SpecProgram};
use cascade_trace::{
    AddressSpace, Arena, ArrayId, IndexStore, LoopSpec, Mode, Pattern, StreamRef, Workload,
};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

mod common;
use common::splitmix64;

// --- the oracle -------------------------------------------------------

fn elem_index(w: &Workload, arena: &Arena, pattern: &Pattern, i: u64) -> u64 {
    match *pattern {
        Pattern::Affine { base, stride } => (base + stride * i as i64) as u64,
        Pattern::Indirect {
            index,
            ibase,
            istride,
        } => arena.get_u32(&w.space, index, (ibase + istride * i as i64) as u64) as u64,
    }
}

fn oracle_iter_f64(w: &Workload, arena: &mut Arena, spec: &LoopSpec, i: u64) {
    let mut acc = 0.0f64;
    for r in spec.refs.iter().filter(|r| r.mode == Mode::Read) {
        let e = elem_index(w, arena, &r.pattern, i);
        acc = acc * 0.5 + arena.get_f64(&w.space, r.array, e);
    }
    for r in &spec.refs {
        match r.mode {
            Mode::Read => {}
            Mode::Write => {
                let e = elem_index(w, arena, &r.pattern, i);
                arena.set_f64(&w.space, r.array, e, acc * 0.9 + 0.1);
            }
            Mode::Modify => {
                let e = elem_index(w, arena, &r.pattern, i);
                let old = arena.get_f64(&w.space, r.array, e);
                arena.set_f64(&w.space, r.array, e, old * 0.25 + acc * 0.5 + 0.0625);
            }
        }
    }
}

fn oracle_iter_u32(w: &Workload, arena: &mut Arena, spec: &LoopSpec, i: u64) {
    let mut acc = 0u32;
    for r in spec.refs.iter().filter(|r| r.mode == Mode::Read) {
        let e = elem_index(w, arena, &r.pattern, i);
        acc = acc
            .wrapping_mul(2_654_435_761)
            .wrapping_add(arena.get_u32(&w.space, r.array, e));
    }
    for r in &spec.refs {
        match r.mode {
            Mode::Read => {}
            Mode::Write => {
                let e = elem_index(w, arena, &r.pattern, i);
                arena.set_u32(&w.space, r.array, e, acc ^ 0x9E37_79B9);
            }
            Mode::Modify => {
                let e = elem_index(w, arena, &r.pattern, i);
                let old = arena.get_u32(&w.space, r.array, e);
                arena.set_u32(&w.space, r.array, e, old.wrapping_mul(3).wrapping_add(acc));
            }
        }
    }
}

/// Run `range` of loop 0 of `w` on `arena`, one iteration at a time.
fn oracle(w: &Workload, arena: &mut Arena, range: Range<u64>) {
    let spec = &w.loops[0];
    for i in range {
        if spec.refs[0].bytes == 8 {
            oracle_iter_f64(w, arena, spec, i);
        } else {
            oracle_iter_u32(w, arena, spec, i);
        }
    }
}

// --- the generator ----------------------------------------------------

#[derive(Debug, Clone)]
enum ReadShape {
    /// `src(base + stride * i)`.
    Affine { base: u64, stride: i64 },
    /// `tab(ir(ibase + istride * i))`.
    Gather { seed: u64, istride: i64 },
}

#[derive(Debug, Clone)]
enum WriteShape {
    /// `af(base + stride * i)`; every affine writer shares `af`.
    Affine {
        base: u64,
        stride: i64,
        modify: bool,
    },
    /// `sc(iw(i))`; every scatter shares `sc` and collides heavily.
    Scatter { seed: u64, modify: bool },
}

#[derive(Debug, Clone)]
struct Scenario {
    /// 8-byte (f64) or 4-byte (u32) loop.
    wide: bool,
    iters: u64,
    reads: Vec<ReadShape>,
    writes: Vec<WriteShape>,
    /// `rec(i + lag) = f(rec(i), ..)`: a carried read, so a helper horizon.
    recurrence: Option<u64>,
    chunk: u64,
    salt: u64,
}

fn stride() -> impl Strategy<Value = i64> {
    prop_oneof![Just(1i64), Just(2), Just(3), Just(-1), Just(-2)]
}

fn read_shape() -> impl Strategy<Value = ReadShape> {
    prop_oneof![
        (any::<u64>(), stride()).prop_map(|(base, stride)| ReadShape::Affine { base, stride }),
        (any::<u64>(), prop_oneof![Just(1i64), Just(2), Just(-1)])
            .prop_map(|(seed, istride)| ReadShape::Gather { seed, istride }),
    ]
}

fn write_shape() -> impl Strategy<Value = WriteShape> {
    prop_oneof![
        (any::<u64>(), stride(), any::<bool>()).prop_map(|(base, stride, modify)| {
            WriteShape::Affine {
                base,
                stride,
                modify,
            }
        }),
        (any::<u64>(), any::<bool>())
            .prop_map(|(seed, modify)| WriteShape::Scatter { seed, modify }),
    ]
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        any::<bool>(),
        48u64..160,
        vec(read_shape(), 0..6),
        vec(write_shape(), 1..5),
        prop_oneof![Just(None), (1u64..=3).prop_map(Some)],
        5u64..40,
        any::<u64>(),
    )
        .prop_map(
            |(wide, iters, reads, writes, recurrence, chunk, salt)| Scenario {
                wide,
                iters,
                reads,
                writes,
                recurrence,
                chunk,
                salt,
            },
        )
}

/// `first + stride * i` stays inside `0 .. 4 * n` for every `i < n`.
fn affine_in(n: u64, base: u64, stride: i64) -> Pattern {
    let first = (base % n) as i64
        + if stride < 0 {
            -stride * (n as i64 - 1)
        } else {
            0
        };
    Pattern::Affine {
        base: first,
        stride,
    }
}

// StreamRef names are `&'static str` (reports only): one per slot.
const READ_NAMES: [&str; 5] = ["rd0", "rd1", "rd2", "rd3", "rd4"];
const WRITE_NAMES: [&str; 4] = ["wr0", "wr1", "wr2", "wr3"];

fn build(s: &Scenario) -> (Workload, Arena) {
    let n = s.iters;
    let width = if s.wide { 8 } else { 4 };
    let (tab_len, sc_len) = ((n / 4).max(4), (n / 3).max(4));
    let mut space = AddressSpace::new();
    let src = space.alloc("src", width, 4 * n);
    let tab = space.alloc("tab", width, tab_len);
    let af = space.alloc("af", width, 4 * n);
    let sc = space.alloc("sc", width, sc_len);
    let rec = space.alloc("rec", width, n + 3);
    let data = [src, tab, af, sc, rec];
    let mut index = IndexStore::new();
    let stream = |name, array, pattern, mode| StreamRef {
        name,
        array,
        pattern,
        mode,
        bytes: width,
        hoistable: false,
    };
    // An index array of `2 * n` words below `bound`, walked by `istride`.
    let mut indirect = |name: &str, seed: u64, bound: u64, istride: i64| {
        let ij = space.alloc(name, 4, 2 * n);
        index.set(
            ij,
            (0..2 * n)
                .map(|p| (splitmix64(seed ^ p) % bound) as u32)
                .collect(),
        );
        Pattern::Indirect {
            index: ij,
            ibase: if istride < 0 { n as i64 - 1 } else { 0 },
            istride,
        }
    };
    let mut refs = Vec::new();
    for (slot, r) in s.reads.iter().enumerate() {
        let name = READ_NAMES[slot];
        refs.push(match *r {
            ReadShape::Affine { base, stride } => {
                stream(name, src, affine_in(n, base, stride), Mode::Read)
            }
            ReadShape::Gather { seed, istride } => {
                let pattern = indirect(&format!("ir{slot}"), seed, tab_len, istride);
                stream(name, tab, pattern, Mode::Read)
            }
        });
    }
    if let Some(lag) = s.recurrence {
        let at = |base| Pattern::Affine { base, stride: 1 };
        refs.push(stream("rec(i)", rec, at(0), Mode::Read));
        refs.push(stream("rec(i+lag)", rec, at(lag as i64), Mode::Write));
    }
    for (slot, wr) in s.writes.iter().enumerate() {
        let name = WRITE_NAMES[slot];
        let mode = |modify| if modify { Mode::Modify } else { Mode::Write };
        refs.push(match *wr {
            WriteShape::Affine {
                base,
                stride,
                modify,
            } => stream(name, af, affine_in(n, base, stride), mode(modify)),
            WriteShape::Scatter { seed, modify } => {
                // Half the array as targets: collisions within and across refs.
                let pattern = indirect(&format!("iw{slot}"), seed, sc_len / 2, 1);
                stream(name, sc, pattern, mode(modify))
            }
        });
    }
    let spec = LoopSpec {
        name: "interp-prop".into(),
        iters: n,
        refs,
        compute: 2.0,
        hoistable_compute: 0.0,
        hoist_result_bytes: 0,
    };
    let w = Workload {
        space,
        index,
        loops: vec![spec],
    };
    let mut arena = Arena::new(&w.space);
    for array in data {
        for e in 0..w.space.array(array).len {
            let v = splitmix64(s.salt ^ ((array.0 as u64) << 32) ^ e);
            if s.wide {
                arena.set_f64(&w.space, array, e, (v % 4096) as f64 * 0.0625 - 100.0);
            } else {
                arena.set_u32(&w.space, array, e, v as u32);
            }
        }
    }
    arena.install_indices(&w.space, &w.index);
    (w, arena)
}

fn program(s: &Scenario) -> (SpecProgram, Workload, Arena) {
    let (w, arena) = build(s);
    let prog = SpecProgram::new(w.clone(), arena.clone()).expect("generated loops are admitted");
    (prog, w, arena)
}

/// Bytes one packed iteration holds: every read operand plus the 4-byte
/// index of every indirect write.
fn record_len(spec: &LoopSpec) -> usize {
    let field = |r: &StreamRef| match (r.mode, &r.pattern) {
        (Mode::Read, _) => r.bytes as usize,
        (_, Pattern::Indirect { .. }) => 4,
        (_, Pattern::Affine { .. }) => 0,
    };
    spec.refs.iter().map(field).sum()
}

fn chunks(iters: u64, chunk: u64) -> impl Iterator<Item = Range<u64>> {
    (0..iters.div_ceil(chunk)).map(move |c| c * chunk..((c + 1) * chunk).min(iters))
}

/// `execute`, whole or split at any point, equals the oracle bitwise.
fn execute_matches_oracle(s: &Scenario) -> Result<(), TestCaseError> {
    let (mut prog, w, mut expected) = program(s);
    oracle(&w, &mut expected, 0..s.iters);
    let split = s.salt % (s.iters + 1);
    {
        let k = prog.kernel(0);
        // SAFETY: single-threaded.
        unsafe {
            k.execute(0..split);
            k.execute(split..s.iters);
        }
    }
    prop_assert!(
        prog.arena_mut().bytes() == expected.bytes(),
        "execute diverged"
    );
    Ok(())
}

/// The runner's chunk shape: pack a prefix (no further than the helper
/// horizon allows), `execute_packed` it, `execute` the remainder.
fn packed_prefix_matches_oracle(s: &Scenario) -> Result<(), TestCaseError> {
    let (mut prog, w, mut expected) = program(s);
    oracle(&w, &mut expected, 0..s.iters);
    {
        let k = prog.kernel(0);
        prop_assert_eq!(k.helper_horizon().is_some(), s.recurrence.is_some());
        let mut buf = Vec::new();
        for (c, range) in chunks(s.iters, s.chunk).enumerate() {
            let want = splitmix64(s.salt ^ c as u64) % (range.end - range.start + 1);
            let packed_to = range.start + want.min(k.helper_horizon().unwrap_or(u64::MAX));
            buf.clear();
            prop_assert!(k.pack_range(range.start..packed_to, &mut buf));
            // SAFETY: single-threaded; `buf` holds exactly the records
            // of `range.start..packed_to`.
            unsafe {
                k.execute_packed(range.start..packed_to, &buf);
                k.execute(packed_to..range.end);
            }
        }
    }
    prop_assert!(
        prog.arena_mut().bytes() == expected.bytes(),
        "packed execution diverged"
    );
    Ok(())
}

/// Replaying a committed chunk from its pre-image reproduces what
/// `journal_capture` reads back after the commit, chunk after chunk, and
/// the whole run still equals the oracle (a replay writes nothing).
fn replay_matches_committed_footprint(s: &Scenario) -> Result<(), TestCaseError> {
    let (mut prog, w, mut expected) = program(s);
    oracle(&w, &mut expected, 0..s.iters);
    {
        let k = prog.kernel(0);
        let (mut pre, mut post) = (Vec::new(), Vec::new());
        for range in chunks(s.iters, s.chunk) {
            // SAFETY: single-threaded, so every call is exclusive and
            // `range` is committed once executed.
            let replayed = unsafe {
                prop_assert!(k.journal_capture(range.clone(), &mut pre));
                k.execute(range.clone());
                prop_assert!(k.journal_capture(range.clone(), &mut post));
                k.replay_footprint(range, &pre)
            };
            prop_assert_eq!(replayed.as_ref(), Some(&post));
        }
    }
    prop_assert!(
        prog.arena_mut().bytes() == expected.bytes(),
        "a replay wrote"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn execute_matches_the_oracle(s in scenario()) {
        execute_matches_oracle(&s)?;
    }

    /// `pack_range` is the concatenation of `pack_iter`, in the closed-form
    /// record size, and neither it nor `prefetch_range` writes anything.
    #[test]
    fn pack_range_is_concatenated_pack_iter(s in scenario()) {
        let (mut prog, w, before) = program(&s);
        let lo = s.salt % s.iters;
        let hi = lo + splitmix64(s.salt) % (s.iters - lo + 1);
        {
            let k = prog.kernel(0);
            let (mut batched, mut single) = (vec![0xAB], vec![0xAB]);
            prop_assert!(k.pack_range(lo..hi, &mut batched), "SpecKernel packs");
            for i in lo..hi {
                prop_assert!(k.pack_iter(i, &mut single));
            }
            prop_assert_eq!(&batched, &single);
            prop_assert_eq!(batched.len(), 1 + (hi - lo) as usize * record_len(&w.loops[0]));
            k.prefetch_range(lo..hi);
            (lo..hi).for_each(|i| k.prefetch_iter(i));
        }
        prop_assert!(prog.arena_mut().bytes() == before.bytes(), "a helper wrote");
    }

    #[test]
    fn packed_prefix_then_execute_matches_the_oracle(s in scenario()) {
        packed_prefix_matches_oracle(&s)?;
    }

    #[test]
    fn replay_matches_the_committed_footprint(s in scenario()) {
        replay_matches_committed_footprint(&s)?;
    }
}

// --- every dispatch arm -----------------------------------------------

/// The (reads, writes) counts the interpreter runs as fixed-length arms,
/// then one past them that it runs over slices.
const SHAPES: [(usize, usize); 9] = [
    (2, 1),
    (1, 1),
    (3, 1),
    (4, 1),
    (0, 1),
    (1, 2),
    (2, 2),
    (1, 0),
    (5, 3),
];

/// A spec with exactly `reads` reads and `writes` writes, alternating
/// affine streams with gathers and scatters (which kind comes first flips
/// with the width, so a one-ref side is each kind at one width).
fn shaped(wide: bool, reads: usize, writes: usize) -> Scenario {
    let gather = |k: usize| (k + wide as usize) % 2 == 1;
    let stride = |k: usize| [1i64, -2, 3, -1][k % 4];
    Scenario {
        wide,
        iters: 96,
        reads: (0..reads)
            .map(|k| match gather(k) {
                true => ReadShape::Gather {
                    seed: 17 + k as u64,
                    istride: stride(k).signum(),
                },
                false => ReadShape::Affine {
                    base: 5 * k as u64,
                    stride: stride(k),
                },
            })
            .collect(),
        writes: (0..writes)
            .map(|k| match gather(k) {
                true => WriteShape::Scatter {
                    seed: 29 + k as u64,
                    modify: k % 2 == 0,
                },
                false => WriteShape::Affine {
                    base: 7 * k as u64,
                    stride: stride(k + 1),
                    modify: k % 2 == 1,
                },
            })
            .collect(),
        recurrence: None,
        chunk: 13,
        salt: 41 + reads as u64 * 8 + writes as u64,
    }
}

#[test]
fn every_dispatch_arm_and_the_fallback_match_the_oracle() {
    for (reads, writes) in SHAPES {
        for wide in [true, false] {
            let s = shaped(wide, reads, writes);
            let (_, w, _) = program(&s);
            let count = |read: bool| {
                let refs = w.loops[0].refs.iter();
                refs.filter(|r| (r.mode == Mode::Read) == read).count()
            };
            assert_eq!((count(true), count(false)), (reads, writes));
            let shape = format!("{reads} reads, {writes} writes, wide {wide}");
            execute_matches_oracle(&s).unwrap_or_else(|e| panic!("{shape}: {e:?}"));
            packed_prefix_matches_oracle(&s).unwrap_or_else(|e| panic!("{shape}: {e:?}"));
            replay_matches_committed_footprint(&s).unwrap_or_else(|e| panic!("{shape}: {e:?}"));
        }
    }
}

// --- rejected inputs --------------------------------------------------

/// A gather read plus a scatter write: an index on both sides of the body.
fn gather_scatter() -> Scenario {
    Scenario {
        wide: true,
        iters: 64,
        reads: vec![ReadShape::Gather {
            seed: 7,
            istride: 1,
        }],
        writes: vec![WriteShape::Scatter {
            seed: 11,
            modify: true,
        }],
        recurrence: None,
        chunk: 16,
        salt: 3,
    }
}

/// The message `f` panics with.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the call must panic");
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast::<&str>()
            .map_or_else(|_| "?".into(), |s| (*s).into()),
    }
}

#[test]
fn a_short_or_long_packed_buffer_is_rejected_before_anything_runs() {
    let (mut prog, w, before) = program(&gather_scatter());
    let len = record_len(&w.loops[0]);
    {
        let k = prog.kernel(0);
        let mut buf = Vec::new();
        assert!(k.pack_range(0..4, &mut buf));
        assert_eq!(buf.len(), 4 * len);
        buf.truncate(4 * len - 3);
        // SAFETY: single-threaded.
        let short = panic_message(|| unsafe { k.execute_packed(0..4, &buf) });
        let held = 4 * len - 3;
        assert_eq!(
            short,
            format!(
                "packed buffer underrun: need {len} bytes at offset {}, buffer holds {held} bytes",
                3 * len
            )
        );
        buf.resize(4 * len + 1, 0);
        // SAFETY: single-threaded.
        let long = panic_message(|| unsafe { k.execute_packed(0..4, &buf) });
        assert!(long.starts_with("packed buffer overrun"), "{long}");
    }
    assert!(prog.arena_mut().bytes() == before.bytes());
}

/// An index that a bit flip pushed past its array must panic with the
/// index and the length — in release builds too, where it used to be a
/// wild dereference — on every path that turns an index into an address,
/// under a fixed-length arm (1 read, 1 write) and under the slice fallback
/// (5 reads, 3 writes) alike.
#[test]
fn an_out_of_range_index_panics_in_every_build() {
    for s in [gather_scatter(), shaped(true, 5, 3)] {
        out_of_range_indices_panic(&s);
    }
}

/// The checks of [`an_out_of_range_index_panics_in_every_build`] on `s`,
/// whose first gather read indexes through `ir0` and first scatter
/// through `iw0`.
fn out_of_range_indices_panic(s: &Scenario) {
    let index_array = |w: &Workload, name: &str| -> ArrayId {
        let (id, _) = w.space.iter().find(|(_, d)| d.name == name).unwrap();
        id
    };
    let out_of_range = |msg: &str, idx: u32, len: u64| {
        assert_eq!(
            msg,
            format!("indirect index {idx} out of range for an array of {len} elements")
        );
    };

    // The gather's index: `execute` and the pack side read through it.
    let (mut prog, w, _) = program(s);
    let tab_len = w.space.iter().find(|(_, d)| d.name == "tab").unwrap().1.len;
    let ir = index_array(&w, "ir0");
    prog.arena_mut().set_u32(&w.space, ir, 5, tab_len as u32);
    let k = prog.kernel(0);
    // SAFETY (here and below): single-threaded.
    out_of_range(
        &panic_message(|| unsafe { k.execute(0..8) }),
        tab_len as u32,
        tab_len,
    );
    out_of_range(
        &panic_message(|| {
            k.pack_range(0..8, &mut Vec::new());
        }),
        tab_len as u32,
        tab_len,
    );
    out_of_range(
        &panic_message(|| {
            k.pack_iter(5, &mut Vec::new());
        }),
        tab_len as u32,
        tab_len,
    );

    // The scatter's index: packing only copies it, so the check falls to
    // `execute_packed` (index taken from the record) and to the replay.
    let (mut prog, w, _) = program(s);
    let sc_len = w.space.iter().find(|(_, d)| d.name == "sc").unwrap().1.len;
    let iw = index_array(&w, "iw0");
    let mut pre = Vec::new();
    {
        let k = prog.kernel(0);
        assert!(unsafe { k.journal_capture(0..8, &mut pre) });
    }
    prog.arena_mut().set_u32(&w.space, iw, 5, u32::MAX);
    let k = prog.kernel(0);
    let mut buf = Vec::new();
    assert!(
        k.pack_range(0..8, &mut buf),
        "a write's index is only copied"
    );
    out_of_range(
        &panic_message(|| unsafe { k.execute_packed(0..8, &buf) }),
        u32::MAX,
        sc_len,
    );
    out_of_range(
        &panic_message(|| drop(unsafe { k.replay_footprint(0..8, &pre) })),
        u32::MAX,
        sc_len,
    );
    // A prefetch only hints at the address, so it needs no check.
    k.prefetch_range(0..8);
}
