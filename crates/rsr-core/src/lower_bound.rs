//! Theorem 4.6: the one-round lower bound via the index problem.
//!
//! "There exists no one round protocol for the Gap Guarantee on
//! `({0,1}^d, f_H)`, `d = Ω(log n + r2)`, `r1 = 1`, `k = 1`, using `O(n)`
//! bits of communication that succeeds with probability at least 2/3."
//!
//! The proof reduces from the index problem: the parties agree on `n+1`
//! codewords `c_1, …, c_{n+1} ∈ {0,1}^{d−1}` with pairwise distance
//! ≥ `r2`; Alice encodes her bit string `x` as `S_A = {c_j ‖ x_j}`; Bob
//! holds all codewords but the `i`-th, each with a 0 appended. A correct
//! Gap protocol forces the recovery of `c_i ‖ x_i`, i.e. of `x_i` —
//! which costs Ω(n) bits in one round.
//!
//! We implement the reduction's ingredients so experiments can run the
//! four-round protocol on the hard instances: [`gv_code`] builds the
//! codeword set (greedy Gilbert–Varshamov in place of the paper's
//! Reed–Muller — any code with these parameters works), and
//! [`IndexInstance`] builds the instances.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsr_metric::{MetricSpace, Point};

/// Greedily builds `count` binary codewords of length `len` with pairwise
/// Hamming distance ≥ `min_dist` (Gilbert–Varshamov style: sample random
/// words, keep those far from all kept words). Returns `None` if the rate
/// is infeasible within the attempt budget.
pub fn gv_code(count: usize, len: usize, min_dist: usize, seed: u64) -> Option<Vec<Vec<bool>>> {
    assert!(min_dist <= len);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut words: Vec<Vec<bool>> = Vec::with_capacity(count);
    let mut attempts = 0usize;
    let budget = 2000 * count.max(1);
    while words.len() < count {
        attempts += 1;
        if attempts > budget {
            return None;
        }
        let cand: Vec<bool> = (0..len).map(|_| rng.gen()).collect();
        let ok = words.iter().all(|w| {
            let dist = w.iter().zip(&cand).filter(|(a, b)| a != b).count();
            dist >= min_dist
        });
        if ok {
            words.push(cand);
        }
    }
    Some(words)
}

/// One hard instance of the Theorem 4.6 reduction.
#[derive(Clone, Debug)]
pub struct IndexInstance {
    /// The Hamming space `({0,1}^d, f_H)`.
    pub space: MetricSpace,
    /// Alice's set `{c_j ‖ x_j : j ∈ [n]}`.
    pub alice: Vec<Point>,
    /// Bob's set `{c_j ‖ 0 : j ≠ i}` (note: `n+1` codewords, minus one).
    pub bob: Vec<Point>,
    /// Alice's bit string `x`.
    pub x: Vec<bool>,
    /// Bob's query index `i` (0-based).
    pub i: usize,
    /// The far radius `r2` of the instance.
    pub r2: usize,
}

impl IndexInstance {
    /// Builds an instance for string length `n`, gap `r2`, and a random
    /// `(x, i)` drawn from `seed`. The dimension is `d = len + 1` with
    /// `len` chosen `Ω(log n + r2)`.
    pub fn build(n: usize, r2: usize, seed: u64) -> Option<IndexInstance> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0bad_cafe);
        let len = (4 * r2)
            .max(8 * ((n.max(2) as f64).log2().ceil() as usize))
            .max(16);
        let code = gv_code(n + 1, len, r2, seed ^ 0xc0de)?;
        let x: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
        let i = rng.gen_range(0..n);
        let alice: Vec<Point> = (0..n)
            .map(|j| {
                let mut bits = code[j].clone();
                bits.push(x[j]);
                Point::from_bits(&bits)
            })
            .collect();
        let bob: Vec<Point> = (0..=n)
            .filter(|&j| j != i)
            .map(|j| {
                let mut bits = code[j].clone();
                bits.push(false);
                Point::from_bits(&bits)
            })
            .collect();
        Some(IndexInstance {
            space: MetricSpace::hamming(len + 1),
            alice,
            bob,
            x,
            i,
            r2,
        })
    }

    /// The answer a correct Gap protocol must expose: does `S'_B` contain
    /// a point within `r2` of Alice's `c_i ‖ x_i`, and does its final bit
    /// reveal `x_i`? Returns Bob's recovered bit, if any.
    pub fn extract_answer(&self, reconciled: &[Point]) -> Option<bool> {
        let target = &self.alice[self.i];
        // Bob's original points are all ≥ r2 from c_i‖x_i except via the
        // appended bit; the recovered point must be the (near-)exact
        // transmission. Find the closest reconciled point and read its
        // last bit if it is within r2.
        let best = reconciled.iter().min_by(|a, b| {
            self.space
                .distance(a, target)
                .partial_cmp(&self.space.distance(b, target))
                .unwrap()
        })?;
        if self.space.distance(best, target) as usize >= self.r2 {
            return None;
        }
        Some(best.coord(best.dim() - 1) == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gap_protocol::{GapConfig, GapProtocol};
    use rsr_hash::lsh::LshParams;
    use rsr_hash::BitSamplingFamily;

    #[test]
    fn gv_code_respects_min_distance() {
        let code = gv_code(20, 64, 16, 1).expect("feasible code");
        assert_eq!(code.len(), 20);
        for i in 0..code.len() {
            for j in (i + 1)..code.len() {
                let dist = code[i].iter().zip(&code[j]).filter(|(a, b)| a != b).count();
                assert!(dist >= 16, "words {i},{j} at distance {dist}");
            }
        }
    }

    #[test]
    fn infeasible_code_returns_none() {
        // 100 words at distance ≥ 9 in 9 bits: impossible.
        assert!(gv_code(100, 9, 9, 2).is_none());
    }

    #[test]
    fn instance_has_gap_structure() {
        let inst = IndexInstance::build(16, 8, 3).unwrap();
        assert_eq!(inst.alice.len(), 16);
        assert_eq!(inst.bob.len(), 16); // n+1 codewords minus one

        // Every Alice point except index i is within r1 = 1 of a Bob point.
        for (j, a) in inst.alice.iter().enumerate() {
            let d = inst.space.nearest_distance(a, &inst.bob);
            if j == inst.i {
                assert!(d >= inst.r2 as f64 - 1.0, "query point too close: {d}");
            } else {
                assert!(d <= 1.0, "non-query point at distance {d}");
            }
        }
    }

    #[test]
    fn four_round_protocol_solves_index_instances() {
        let mut correct = 0u64;
        let trials = 10;
        for t in 0..trials {
            let inst = IndexInstance::build(12, 8, 100 + t).unwrap();
            let dim = inst.space.dim();
            let fam = BitSamplingFamily::new(dim, dim as f64);
            let params = LshParams::new(
                1.0,
                inst.r2 as f64,
                1.0 - 1.0 / dim as f64,
                1.0 - inst.r2 as f64 / dim as f64,
            );
            let cfg = GapConfig::for_params(params, 12, 1);
            let proto = GapProtocol::new(inst.space, &fam, cfg, 200 + t);
            let Ok(out) = proto.run(&inst.alice, &inst.bob) else {
                continue;
            };
            if inst.extract_answer(&out.reconciled) == Some(inst.x[inst.i]) {
                correct += 1;
            }
        }
        assert!(
            correct >= 8,
            "4-round protocol solved only {correct}/{trials}"
        );
    }
}
