//! Denavit–Hartenberg forward kinematics.
//!
//! Classic (distal) DH convention: the transform of link `i` is
//! `Rot_z(θ_i) · Trans_z(d_i) · Trans_x(a_i) · Rot_x(α_i)` with
//! `θ_i = q_i + θ_offset_i` for revolute joints. Four `f64`s per link and
//! a 3×3-plus-translation transform — no general 4×4 matrix stack needed.
//!
//! [`DhChain::forward`] returns the bits of the straightforward body
//! (every full link transform composed onto the identity) but does
//! only the arithmetic that can change one. Four rewrites:
//!
//! 1. **Trig first.** Every needed `sin_cos` runs before the first
//!    compose, into a fixed-size stack array, so the compose chain is
//!    not spilled around the libm calls.
//! 2. **First link.** Its transform is its DH matrix, with `0.0 + x` on
//!    the translation: all the identity multiply does to it. Rotation
//!    sums also skip the leading `0.0 +` of the straightforward body.
//! 3. **Exact-zero products dropped.** Per link: the DH `[2][0]` entry
//!    (always `0.0`); for a planar twist (`sin α == 0.0`,
//!    `cos α == 1.0`) the `sin α` terms and the `× 1.0`; the `a·cos θ`,
//!    `a·sin θ` translation terms when `a == 0.0`; the `d` term when
//!    `d == 0.0`.
//! 4. **Tool link.** When its `a == 0.0` its angle cannot move the tool
//!    point: no `sin_cos`, only the `r[i][2]·d` term.
//!
//! Why this is exact, for finite angles and twists:
//!
//! - The translation starts as `0.0 + x` and then only has terms added,
//!   so no partial translation sum is `-0.0` (in round-to-nearest a sum
//!   is `-0.0` only when both operands are).
//! - Adding a `±0.0` term to a sum that is not `-0.0` leaves its bits
//!   unchanged, so neither a dropped zero product nor the sign of a
//!   kept one can move a translation bit.
//! - A rotation entry equals the straightforward one up to the sign of
//!   a zero, which is all the skipped `0.0 +` and the dropped terms can
//!   change, and rotation entries reach the result only as factors of
//!   such translation terms.
//! - `x · 1.0 == x`, and `sin_cos` is pure.
//!
//! A non-finite angle or twist turns the dropped products into NaN, and
//! the identity multiply spreads a non-finite first-link `a` or `d` to
//! every axis, so such inputs, and chains of fewer than 2 or more than
//! 8 links, run the straightforward body instead.

use serde::{Deserialize, Error, Serialize, Value};

/// One revolute DH link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DhLink {
    /// Link length `a` (metres).
    pub a: f64,
    /// Link twist `α` (radians).
    pub alpha: f64,
    /// Link offset `d` (metres).
    pub d: f64,
    /// Constant joint-angle offset added to the joint variable.
    pub theta_offset: f64,
}

/// Slots of [`DhChain::forward`]'s stack trig array: chains of 2 to this
/// many links take the rewritten path. The tool link's trig stays out
/// of the array: it is computed only when it moves the tool point.
const TRIG_SLOTS: usize = 8;

/// Rigid transform: rotation matrix (row-major 3×3) plus translation.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Transform {
    r: [[f64; 3]; 3],
    t: [f64; 3],
}

impl Transform {
    fn identity() -> Self {
        Self {
            r: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            t: [0.0; 3],
        }
    }

    /// The link transform for the joint's `(sin θ, cos θ)`, given the
    /// link's cached twist `(sin α, cos α)`.
    fn dh(link: &DhLink, (sa, ca): (f64, f64), (st, ct): (f64, f64)) -> Self {
        Self {
            r: [
                [ct, -st * ca, st * sa],
                [st, ct * ca, -ct * sa],
                [0.0, sa, ca],
            ],
            t: [link.a * ct, link.a * st, link.d],
        }
    }

    /// `self.compose(&dh(link, ..))` without the products that are
    /// exactly `±0.0` (the DH `[2][0]` entry, a planar twist's `sin α`
    /// terms, a zero `a` or `d`), a planar twist's `× 1.0` or the
    /// rotation's leading `0.0 +`. For finite `self.r` and trig, the
    /// translation keeps its bits as long as `self.t` holds no `-0.0`,
    /// and the rotation can differ only in the sign of a zero (see the
    /// module doc).
    fn compose_dh(&self, link: &DhLink, (sa, ca): (f64, f64), (st, ct): (f64, f64)) -> Transform {
        let mut r = [[0.0; 3]; 3];
        let planar = sa == 0.0 && ca == 1.0;
        for (out, a) in r.iter_mut().zip(&self.r) {
            out[0] = a[0] * ct + a[1] * st;
            if planar {
                out[1] = a[0] * -st + a[1] * ct;
                out[2] = a[2];
            } else {
                out[1] = a[0] * (-st * ca) + a[1] * (ct * ca) + a[2] * sa;
                out[2] = a[0] * (st * sa) + a[1] * (-ct * sa) + a[2] * ca;
            }
        }
        Transform {
            r,
            t: self.translate_dh(link, || (st, ct)),
        }
    }

    /// The translation of `self.compose(&dh(link, ..))` without the
    /// `a` terms when `a == 0.0` or the `d` term when `d == 0.0`; the
    /// joint's `(sin θ, cos θ)` is asked for only when `a != 0.0`.
    fn translate_dh(&self, link: &DhLink, trig: impl FnOnce() -> (f64, f64)) -> [f64; 3] {
        let mut t = self.t;
        if link.a != 0.0 {
            let (st, ct) = trig();
            let (x, y) = (link.a * ct, link.a * st);
            for (ti, a) in t.iter_mut().zip(&self.r) {
                *ti = *ti + a[0] * x + a[1] * y;
            }
        }
        if link.d != 0.0 {
            for (ti, a) in t.iter_mut().zip(&self.r) {
                *ti += a[2] * link.d;
            }
        }
        t
    }

    fn compose(&self, other: &Transform) -> Transform {
        let mut r = [[0.0; 3]; 3];
        for (i, row) in r.iter_mut().enumerate() {
            for (j, rij) in row.iter_mut().enumerate() {
                for (k, other_row) in other.r.iter().enumerate() {
                    *rij += self.r[i][k] * other_row[j];
                }
            }
        }
        Transform {
            r,
            t: self.translate(&other.t),
        }
    }

    /// The translation column of `self.compose(other)` for an `other`
    /// with translation `t`, in the same operation order — all the last
    /// link of a chain needs, since FK reads no rotation.
    fn translate(&self, t: &[f64; 3]) -> [f64; 3] {
        let mut out = [0.0; 3];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.t[i] + self.r[i][0] * t[0] + self.r[i][1] * t[1] + self.r[i][2] * t[2];
        }
        out
    }
}

/// A serial chain of revolute DH links.
///
/// Serialises as its links only: the per-link twist trig is derived
/// state, recomputed on deserialisation.
#[derive(Debug, Clone, PartialEq)]
pub struct DhChain {
    links: Vec<DhLink>,
    /// `alpha.sin_cos()` per link — constant, so computed once here
    /// rather than on every [`DhChain::forward`].
    twist: Vec<(f64, f64)>,
}

impl DhChain {
    /// Builds a chain from links.
    ///
    /// # Panics
    /// Panics on an empty chain.
    pub fn new(links: Vec<DhLink>) -> Self {
        assert!(!links.is_empty(), "DH chain needs at least one link");
        let twist = links.iter().map(|l| l.alpha.sin_cos()).collect();
        Self { links, twist }
    }

    /// Number of joints.
    pub fn dof(&self) -> usize {
        self.links.len()
    }

    /// The links.
    pub fn links(&self) -> &[DhLink] {
        &self.links
    }

    /// End-effector position (metres) for joint angles `q`.
    ///
    /// Bit-identical to composing every full link transform onto the
    /// identity, by the four rewrites of the module doc: trig first into
    /// a stack array, the first link without the identity multiply,
    /// products that are exactly `±0.0` dropped, and no trig for a tool
    /// link with `a == 0.0`. No partial translation sum is `-0.0`, so a
    /// dropped `±0.0` term could not have changed it. A non-finite angle,
    /// twist or first-link `a`/`d`, or a chain of fewer than 2 or more
    /// than 8 links, takes the straightforward body instead.
    ///
    /// # Panics
    /// Panics if `q.len() != dof()`.
    pub fn forward(&self, q: &[f64]) -> [f64; 3] {
        assert_eq!(q.len(), self.links.len(), "fk: joint count mismatch");
        let (last, init) = self
            .links
            .split_last()
            .expect("DhChain::new rejects an empty chain");
        if init.is_empty() || self.links.len() > TRIG_SLOTS {
            return self.forward_composed(q);
        }
        let mut trig = [(0.0, 0.0); TRIG_SLOTS];
        let mut finite = true;
        for ((slot, link), &qi) in trig.iter_mut().zip(init).zip(q) {
            let th = qi + link.theta_offset;
            finite &= th.is_finite() & link.alpha.is_finite();
            *slot = th.sin_cos();
        }
        // The identity multiply spreads a non-finite first translation
        // to every axis (`0.0 · ∞` is NaN), which `0.0 + x` would not.
        finite &= init[0].a.is_finite() & init[0].d.is_finite();
        let tool_th = q[init.len()] + last.theta_offset;
        if !(finite && tool_th.is_finite()) {
            return self.forward_composed(q);
        }
        let mut acc = Transform::dh(&init[0], self.twist[0], trig[0]);
        acc.t = acc.t.map(|x| 0.0 + x);
        for ((link, &twist), &angle) in init[1..].iter().zip(&self.twist[1..]).zip(&trig[1..]) {
            acc = acc.compose_dh(link, twist, angle);
        }
        acc.translate_dh(last, || tool_th.sin_cos())
    }

    /// The straightforward body [`DhChain::forward`] reproduces: every
    /// link's transform composed onto the identity, only the last
    /// link's unread rotation skipped. It serves the inputs the rewrites
    /// do not cover: non-finite angles or twists (whose dropped terms
    /// would be NaN), a non-finite first-link `a` or `d`, and chains
    /// outside the trig array's range.
    fn forward_composed(&self, q: &[f64]) -> [f64; 3] {
        let (last, init) = self
            .links
            .split_last()
            .expect("DhChain::new rejects an empty chain");
        let mut acc = Transform::identity();
        for ((link, &twist), &qi) in init.iter().zip(&self.twist).zip(q) {
            let angle = (qi + link.theta_offset).sin_cos();
            acc = acc.compose(&Transform::dh(link, twist, angle));
        }
        let (st, ct) = (q[init.len()] + last.theta_offset).sin_cos();
        acc.translate(&[last.a * ct, last.a * st, last.d])
    }

    /// End-effector position in **millimetres** — the unit of every figure
    /// in the paper.
    pub fn forward_mm(&self, q: &[f64]) -> [f64; 3] {
        let p = self.forward(q);
        [p[0] * 1000.0, p[1] * 1000.0, p[2] * 1000.0]
    }

    /// Distance from the base origin in millimetres (the paper's
    /// "distance from origin \[mm\]" y-axis of Figs. 6, 9, 10).
    pub fn distance_from_origin_mm(&self, q: &[f64]) -> f64 {
        let p = self.forward_mm(q);
        (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt()
    }

    /// Theoretical maximum reach: Σ (|a| + |d|) — an upper bound used by
    /// sanity tests.
    pub fn max_reach(&self) -> f64 {
        self.links.iter().map(|l| l.a.abs() + l.d.abs()).sum()
    }
}

impl Serialize for DhChain {
    fn to_value(&self) -> Value {
        Value::Object(vec![("links".to_string(), self.links.to_value())])
    }
}

impl Deserialize for DhChain {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let links = Vec::<DhLink>::from_value(v.get("links").unwrap_or(&Value::Null))?;
        if links.is_empty() {
            return Err(Error::new("DH chain needs at least one link"));
        }
        Ok(Self::new(links))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A planar 2-link arm (both twists zero) has the textbook FK.
    #[test]
    fn planar_two_link_textbook() {
        let chain = DhChain::new(vec![
            DhLink {
                a: 1.0,
                alpha: 0.0,
                d: 0.0,
                theta_offset: 0.0,
            },
            DhLink {
                a: 0.5,
                alpha: 0.0,
                d: 0.0,
                theta_offset: 0.0,
            },
        ]);
        // Straight out along x.
        let p = chain.forward(&[0.0, 0.0]);
        assert!((p[0] - 1.5).abs() < 1e-12 && p[1].abs() < 1e-12);
        // First joint at 90°: arm along y.
        let p = chain.forward(&[std::f64::consts::FRAC_PI_2, 0.0]);
        assert!(p[0].abs() < 1e-12 && (p[1] - 1.5).abs() < 1e-12);
        // Elbow bent 90°: x = 1, y = 0.5.
        let p = chain.forward(&[0.0, std::f64::consts::FRAC_PI_2]);
        assert!((p[0] - 1.0).abs() < 1e-12 && (p[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn vertical_offset_link() {
        let chain = DhChain::new(vec![DhLink {
            a: 0.0,
            alpha: 0.0,
            d: 0.3,
            theta_offset: 0.0,
        }]);
        let p = chain.forward(&[1.234]); // rotation about z does not move the point
        assert!(p[0].abs() < 1e-12 && p[1].abs() < 1e-12 && (p[2] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn reach_never_exceeds_bound() {
        let chain = DhChain::new(vec![
            DhLink {
                a: 0.2,
                alpha: 1.0,
                d: 0.1,
                theta_offset: 0.3,
            },
            DhLink {
                a: 0.3,
                alpha: -0.5,
                d: 0.05,
                theta_offset: 0.0,
            },
            DhLink {
                a: 0.1,
                alpha: 0.2,
                d: 0.2,
                theta_offset: -0.7,
            },
        ]);
        let bound = chain.max_reach() + 1e-9;
        for k in 0..100 {
            let q = [k as f64 * 0.37, k as f64 * -0.21, k as f64 * 0.11];
            let p = chain.forward(&q);
            let r = (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt();
            assert!(r <= bound, "reach {r} exceeds bound {bound}");
        }
    }

    #[test]
    fn fk_is_continuous() {
        let chain = DhChain::new(vec![
            DhLink {
                a: 0.2,
                alpha: 0.5,
                d: 0.1,
                theta_offset: 0.0,
            },
            DhLink {
                a: 0.3,
                alpha: -0.5,
                d: 0.0,
                theta_offset: 0.0,
            },
        ]);
        let q = [0.4, -0.9];
        let p0 = chain.forward(&q);
        let p1 = chain.forward(&[q[0] + 1e-6, q[1]]);
        let dist =
            ((p0[0] - p1[0]).powi(2) + (p0[1] - p1[1]).powi(2) + (p0[2] - p1[2]).powi(2)).sqrt();
        assert!(dist < 1e-5, "FK jump {dist} for 1e-6 joint change");
    }

    #[test]
    fn millimetre_conversion() {
        let chain = DhChain::new(vec![DhLink {
            a: 0.5,
            alpha: 0.0,
            d: 0.0,
            theta_offset: 0.0,
        }]);
        let mm = chain.forward_mm(&[0.0]);
        assert!((mm[0] - 500.0).abs() < 1e-9);
        assert!((chain.distance_from_origin_mm(&[0.0]) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn serde_carries_links_only_and_rebuilds_the_twist_cache() {
        let chain = crate::niryo_one().chain;
        let value = chain.to_value();
        let fields = value.as_object().expect("object");
        assert_eq!(fields.len(), 1, "only the links travel");
        assert_eq!(DhChain::from_value(&value).expect("decodes"), chain);
        let empty = Value::Object(vec![("links".to_string(), Value::Array(Vec::new()))]);
        assert!(DhChain::from_value(&empty).is_err(), "empty chain rejected");
    }
}
