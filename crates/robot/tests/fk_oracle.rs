//! `DhChain::forward` against a naive oracle: the straightforward FK
//! body — every link's full transform, twist trig recomputed on every
//! call, composed onto the identity — compared bit for bit.
//!
//! The library caches each link's `alpha.sin_cos()`, computes every
//! joint's trig before the first compose, builds the first link's
//! transform without the identity multiply (`0.0 + x` on its
//! translation only), drops the products that are exactly `±0.0` (the
//! DH `[2][0]` entry, a planar twist's `sin α` terms and `× 1.0`, a
//! zero `a` or `d`), skips the tool link's trig when its `a == 0.0`,
//! and composes only the translation of the last link. Non-finite
//! angles, twists or first-link lengths, and chains outside its trig
//! array (fewer than 2 or more than 8 links), take the straightforward
//! body. All of it is exact, which this suite pins on the shipped arm,
//! on chains that reach every one of those branches, over a grid that
//! includes every joint limit, `0.0` and `-0.0`, with NaN and ±∞ in
//! each joint and in each link parameter, and over the clamped commands
//! of recorded teleoperation traces.

use foreco_robot::{niryo_one, DhChain, DhLink};
use foreco_teleop::{Dataset, Skill};

/// The naive forward kinematics the library must reproduce.
fn oracle_forward(chain: &DhChain, q: &[f64]) -> [f64; 3] {
    type Transform = ([[f64; 3]; 3], [f64; 3]);
    fn dh(link: &DhLink, q: f64) -> Transform {
        let th = q + link.theta_offset;
        let (st, ct) = th.sin_cos();
        let (sa, ca) = link.alpha.sin_cos();
        (
            [
                [ct, -st * ca, st * sa],
                [st, ct * ca, -ct * sa],
                [0.0, sa, ca],
            ],
            [link.a * ct, link.a * st, link.d],
        )
    }
    fn compose(a: &Transform, b: &Transform) -> Transform {
        let mut r = [[0.0; 3]; 3];
        let mut t = [0.0; 3];
        for i in 0..3 {
            for j in 0..3 {
                for (k, b_row) in b.0.iter().enumerate() {
                    r[i][j] += a.0[i][k] * b_row[j];
                }
            }
            t[i] = a.1[i] + a.0[i][0] * b.1[0] + a.0[i][1] * b.1[1] + a.0[i][2] * b.1[2];
        }
        (r, t)
    }
    assert_eq!(q.len(), chain.dof());
    let mut acc: Transform = (
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [0.0; 3],
    );
    for (link, &qi) in chain.links().iter().zip(q) {
        acc = compose(&acc, &dh(link, qi));
    }
    acc.1
}

/// Asserts the library's and the oracle's results have the same bits,
/// NaN bits included. An optimised build is the one exception: Rust
/// leaves the sign and payload of a NaN result unspecified, and LLVM
/// may commute an operation so that a different NaN operand propagates
/// (the straightforward body itself then differs from this oracle in
/// NaN sign bits), so there a NaN matches any NaN.
fn assert_bits_eq(chain: &DhChain, q: &[f64], context: &str) {
    let got = chain.forward(q);
    let want = oracle_forward(chain, q);
    for axis in 0..3 {
        let (g, w) = (got[axis], want[axis]);
        let same =
            g.to_bits() == w.to_bits() || (!cfg!(debug_assertions) && g.is_nan() && w.is_nan());
        assert!(
            same,
            "{context}: axis {axis} at q = {q:?}: {g} ({:#x}) vs oracle {w} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

fn link(a: f64, alpha: f64, d: f64, theta_offset: f64) -> DhLink {
    DhLink {
        a,
        alpha,
        d,
        theta_offset,
    }
}

/// The chains of the kinematics unit tests, the shipped arm, and a
/// degenerate chain.
fn chains() -> Vec<(&'static str, DhChain)> {
    vec![
        ("niryo_one", niryo_one().chain),
        (
            "planar two-link",
            DhChain::new(vec![link(1.0, 0.0, 0.0, 0.0), link(0.5, 0.0, 0.0, 0.0)]),
        ),
        (
            "vertical offset",
            DhChain::new(vec![link(0.0, 0.0, 0.3, 0.0)]),
        ),
        (
            "three-link reach",
            DhChain::new(vec![
                link(0.2, 1.0, 0.1, 0.3),
                link(0.3, -0.5, 0.05, 0.0),
                link(0.1, 0.2, 0.2, -0.7),
            ]),
        ),
        (
            "two-link continuity",
            DhChain::new(vec![link(0.2, 0.5, 0.1, 0.0), link(0.3, -0.5, 0.0, 0.0)]),
        ),
        // Degenerate zero-length links keep the tool at the origin, so
        // the signs of its zero coordinates are all that can differ: the
        // case the first link's `0.0 +` translation exists for.
        (
            "zero-length",
            DhChain::new(vec![
                link(0.0, 0.0, 0.0, 0.0),
                link(0.0, 0.7, 0.0, 0.2),
                link(0.0, -1.1, 0.0, 0.0),
            ]),
        ),
        // Interior links that are planar (one with a `-0.0` twist),
        // zero-`a` and zero-`d`, and a tool link with `a != 0.0`, whose
        // trig is needed.
        (
            "mixed interior, moving tool",
            DhChain::new(vec![
                link(0.2, 1.0, 0.1, 0.3),
                link(0.3, 0.0, 0.0, 0.0),
                link(0.0, -0.5, 0.05, 0.0),
                link(0.15, -0.0, 0.02, 0.4),
                link(0.1, 0.4, 0.0, -0.7),
            ]),
        ),
        // A planar zero-length interior link and a tool link with
        // `a == 0.0` but `d != 0.0`, whose trig is skipped.
        (
            "zero-length interior, offset tool",
            DhChain::new(vec![
                link(-0.1, 0.3, 0.2, 0.0),
                link(0.0, 0.0, 0.0, 0.1),
                link(0.0, 0.9, 0.15, -0.2),
            ]),
        ),
        ("one link", DhChain::new(vec![link(0.25, 0.6, -0.1, 0.5)])),
        // Longer than the trig array: the straightforward body.
        (
            "ten links",
            DhChain::new(
                (0..10)
                    .map(|k| {
                        let k = k as f64;
                        link(0.05 * (k % 3.0), 0.3 * k - 1.0, 0.02 * (k % 2.0), 0.1 * k)
                    })
                    .collect(),
            ),
        ),
    ]
}

/// SplitMix64: a seeded, dependency-free joint-value source.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

#[test]
fn forward_matches_the_oracle_on_a_seeded_grid_with_limits_and_signed_zeros() {
    let limits = niryo_one().limits;
    let mut rng = SplitMix(0x5eed);
    for (name, chain) in chains() {
        let dof = chain.dof();
        // Per joint: its limits (the shipped arm's, or ±π), both signed
        // zeros, and random interior values.
        let specials = |j: usize| -> Vec<f64> {
            let (lo, hi) = limits
                .get(j)
                .filter(|_| name == "niryo_one")
                .map_or((-std::f64::consts::PI, std::f64::consts::PI), |l| {
                    (l.min, l.max)
                });
            vec![lo, hi, 0.0, -0.0]
        };
        // Every joint at each special value while the others take a
        // random value, then fully random poses.
        for j in 0..dof {
            for v in specials(j) {
                for _ in 0..16 {
                    let mut q: Vec<f64> = (0..dof)
                        .map(|k| {
                            let s = specials(k);
                            rng.range(s[0], s[1])
                        })
                        .collect();
                    q[j] = v;
                    assert_bits_eq(&chain, &q, name);
                }
            }
        }
        // All joints at one special value at once (all-zero, all -0.0,
        // all at their lower / upper limits).
        for which in 0..4 {
            let q: Vec<f64> = (0..dof).map(|k| specials(k)[which]).collect();
            assert_bits_eq(&chain, &q, name);
        }
        for _ in 0..2_000 {
            let q: Vec<f64> = (0..dof)
                .map(|k| {
                    let s = specials(k);
                    rng.range(s[0], s[1])
                })
                .collect();
            assert_bits_eq(&chain, &q, name);
        }
    }
}

#[test]
fn forward_matches_the_oracle_over_clamped_recorded_commands() {
    let model = niryo_one();
    for (skill, seed) in [(Skill::Inexperienced, 42), (Skill::Experienced, 7)] {
        let trace = Dataset::record(skill, 1, 0.02, seed);
        assert!(!trace.commands.is_empty());
        for command in &trace.commands {
            let q = model.clamp(command);
            assert_bits_eq(&model.chain, &q, "recorded command");
        }
    }
}

#[test]
fn forward_matches_the_oracle_with_a_non_finite_joint_in_each_position() {
    let mut rng = SplitMix(0x0f1e);
    for (name, chain) in chains() {
        let dof = chain.dof();
        for j in 0..dof {
            for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut q: Vec<f64> = (0..dof).map(|_| rng.range(-3.0, 3.0)).collect();
                q[j] = v;
                assert_bits_eq(&chain, &q, name);
            }
        }
    }
}

/// A NaN or ±∞ in one field (`a`, `α`, `d`, `θ_offset`) of one link.
/// The second base chain ends in zero-length links, whose dropped terms
/// are all that could carry a NaN twist to the tool point.
#[test]
fn forward_matches_the_oracle_on_chains_with_non_finite_parameters() {
    let bases = [
        [
            link(0.2, 1.0, 0.1, 0.3),
            link(0.0, 0.0, 0.0, 0.0),
            link(0.1, -0.5, 0.0, 0.2),
        ],
        [
            link(0.2, 1.0, 0.1, 0.3),
            link(0.0, 0.0, 0.0, 0.0),
            link(0.0, -0.5, 0.0, 0.2),
        ],
    ];
    let mut rng = SplitMix(0xbad);
    for (base, links) in bases.iter().enumerate() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for position in 0..links.len() {
                for field in 0..4 {
                    let mut links = links.to_vec();
                    let l = &mut links[position];
                    *[&mut l.a, &mut l.alpha, &mut l.d, &mut l.theta_offset][field] = bad;
                    let chain = DhChain::new(links);
                    let context = format!("base {base}: {bad} in link {position} field {field}");
                    for _ in 0..16 {
                        let q: Vec<f64> = (0..3).map(|_| rng.range(-3.0, 3.0)).collect();
                        assert_bits_eq(&chain, &q, &context);
                    }
                }
            }
        }
    }
}
