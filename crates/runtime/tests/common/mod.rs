//! Generators and oracles shared by `cascade-rt`'s integration suites.
//! Each suite is its own test binary and uses a subset.
#![allow(dead_code)]

use cascade_rt::{RealKernel, SpecProgram};
use cascade_synth::{Synth, Variant};
use cascade_trace::{
    AddressSpace, Arena, IndexStore, LoopSpec, Mode, Pattern, StreamRef, Workload,
};
use proptest::prelude::*;

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Vector length of the Synth loop the fault, verify and soak suites run.
pub const N: u64 = 1 << 12;

/// Checksum of the Synth loop (length [`N`], seed 99) after straight
/// sequential execution.
pub fn sequential_checksum(variant: Variant) -> u64 {
    let s = Synth::build(N, variant, 99);
    let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
    let k = prog.kernel(0);
    // SAFETY: single-threaded.
    unsafe { k.execute(0..k.iters()) };
    prog.checksum()
}

/// One randomized write stream, in raw (unclamped) form: an affine
/// write/modify, or an indirect scatter whose index contents are derived
/// from `seed` over a deliberately small element range (heavy collisions
/// → alias-heavy RMW chains).
#[derive(Debug, Clone)]
pub enum RawShape {
    Affine {
        base: u64,
        stride: u64,
        modify: bool,
    },
    Scatter {
        seed: u64,
    },
}

pub fn raw_shape() -> impl Strategy<Value = RawShape> {
    prop_oneof![
        (any::<u64>(), 1..=3u64, any::<bool>()).prop_map(|(base, stride, modify)| {
            RawShape::Affine {
                base,
                stride,
                modify,
            }
        }),
        any::<u64>().prop_map(|seed| RawShape::Scatter { seed }),
    ]
}

/// Build a runnable alias-heavy loop of `iters` iterations from up to
/// three write shapes. All scatters alias one shared data array `sc`;
/// affine writes share (and may overlap within) `af`; a read stream makes
/// the interpreter's accumulator depend on real data.
pub fn build(name: &str, iters: u64, shapes: &[RawShape]) -> SpecProgram {
    let n = iters;
    let sc_elems = (n / 2).max(4);
    let mut space = AddressSpace::new();
    let src = space.alloc("src", 8, n);
    let af = space.alloc("af", 8, 4 * n);
    let sc = space.alloc("sc", 8, sc_elems);
    let mut index = IndexStore::new();
    let mut refs = vec![StreamRef {
        name: "src(i)",
        array: src,
        pattern: Pattern::Affine { base: 0, stride: 1 },
        mode: Mode::Read,
        bytes: 8,
        hoistable: false,
    }];
    // StreamRef names are &'static str (reports only): one per slot.
    const IJ_NAMES: [&str; 3] = ["ij0", "ij1", "ij2"];
    const AF_NAMES: [&str; 3] = ["af(a0+s0*i)", "af(a1+s1*i)", "af(a2+s2*i)"];
    const SC_NAMES: [&str; 3] = ["sc(ij0(i))", "sc(ij1(i))", "sc(ij2(i))"];
    for (slot, w) in shapes.iter().enumerate() {
        match *w {
            // Bounds: `af` holds 4n elements, so base < n with stride <= 3
            // keeps base + stride * (n - 1) inside the array.
            RawShape::Affine {
                base,
                stride,
                modify,
            } => refs.push(StreamRef {
                name: AF_NAMES[slot],
                array: af,
                pattern: Pattern::Affine {
                    base: (base % n) as i64,
                    stride: stride as i64,
                },
                mode: if modify { Mode::Modify } else { Mode::Write },
                bytes: 8,
                hoistable: false,
            }),
            RawShape::Scatter { seed } => {
                let ij = space.alloc(IJ_NAMES[slot], 4, n);
                // Index values from the array's first quarter: with n
                // iterations over sc_elems / 4 targets, collisions are
                // guaranteed, so the scatter is an order-sensitive RMW
                // chain with aliasing both within and across refs.
                let bound = (sc_elems / 4).max(2) as u32;
                index.set(
                    ij,
                    (0..n)
                        .map(|i| (splitmix64(seed ^ i) % bound as u64) as u32)
                        .collect(),
                );
                refs.push(StreamRef {
                    name: SC_NAMES[slot],
                    array: sc,
                    pattern: Pattern::Indirect {
                        index: ij,
                        ibase: 0,
                        istride: 1,
                    },
                    mode: Mode::Modify,
                    bytes: 8,
                    hoistable: false,
                });
            }
        }
    }
    let spec = LoopSpec {
        name: name.into(),
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
    for i in 0..n {
        arena.set_f64(&w.space, src, i, (i % 31) as f64 * 0.375 + 0.5);
    }
    for i in 0..4 * n {
        arena.set_f64(&w.space, af, i, (i % 17) as f64 * 0.125 - 1.0);
    }
    for i in 0..sc_elems {
        arena.set_f64(&w.space, sc, i, (i % 7) as f64 * 0.25 + 0.125);
    }
    arena.install_indices(&w.space, &w.index);
    SpecProgram::new(w, arena).expect("generated workload must be runnable")
}
