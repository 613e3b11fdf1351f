//! CGP genomes: encoding, evaluation, mutation, AIG conversion.

use lsml_aig::{Aig, Lit};
use lsml_pla::{BitColumns, Dataset, Pattern};
use rand::rngs::StdRng;
use rand::Rng;

/// Node function set: Team 9 restricted candidates to "XORs, ANDs, and
/// Inverters; in other words AIG or XAIG".
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum NodeFn {
    /// Two-input AND.
    And,
    /// Two-input XOR (only drawn when the config enables XAIG mode).
    Xor,
    /// Inverter (ignores its second connection).
    Not,
}

/// One gene: a function and two connection indices (into the concatenated
/// `[inputs..., nodes...]` signal list; connections always point backwards).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Gene {
    /// Node function.
    pub func: NodeFn,
    /// First connection.
    pub a: u32,
    /// Second connection (ignored by [`NodeFn::Not`]).
    pub b: u32,
}

/// A single-row CGP individual.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Genome {
    pub(crate) num_inputs: usize,
    pub(crate) genes: Vec<Gene>,
    /// Signal index driving the primary output.
    pub(crate) output: u32,
}

impl Genome {
    /// A random genome with `n_nodes` genes.
    pub fn random(num_inputs: usize, n_nodes: usize, use_xor: bool, rng: &mut StdRng) -> Self {
        assert!(num_inputs > 0, "CGP needs at least one input");
        let genes = (0..n_nodes)
            .map(|i| random_gene(num_inputs + i, use_xor, rng))
            .collect();
        let output = rng.gen_range(0..(num_inputs + n_nodes) as u32);
        Genome {
            num_inputs,
            genes,
            output,
        }
    }

    /// Number of genes (grid columns).
    pub fn len(&self) -> usize {
        self.genes.len()
    }

    /// Whether the genome has no genes.
    pub fn is_empty(&self) -> bool {
        self.genes.is_empty()
    }

    /// Marks the genes reachable from the output (the *phenotype*).
    pub fn active_mask(&self) -> Vec<bool> {
        let mut active = vec![false; self.genes.len()];
        let mut stack = vec![self.output];
        while let Some(s) = stack.pop() {
            let s = s as usize;
            if s < self.num_inputs {
                continue;
            }
            let g = s - self.num_inputs;
            if active[g] {
                continue;
            }
            active[g] = true;
            stack.push(self.genes[g].a);
            if self.genes[g].func != NodeFn::Not {
                stack.push(self.genes[g].b);
            }
        }
        active
    }

    /// Number of active (phenotype) genes.
    pub fn phenotype_size(&self) -> usize {
        self.active_mask().iter().filter(|&&a| a).count()
    }

    /// Evaluates the genome on one pattern.
    ///
    /// # Panics
    ///
    /// Panics if the pattern arity differs from the genome's input count.
    pub fn predict(&self, p: &Pattern) -> bool {
        assert_eq!(p.len(), self.num_inputs, "pattern arity mismatch");
        let mut values: Vec<bool> = p.iter().collect();
        values.reserve(self.genes.len());
        for g in &self.genes {
            let a = values[g.a as usize];
            let v = match g.func {
                NodeFn::And => a && values[g.b as usize],
                NodeFn::Xor => a ^ values[g.b as usize],
                NodeFn::Not => !a,
            };
            values.push(v);
        }
        values[self.output as usize]
    }

    /// Bit-packed evaluation over a whole dataset (64 examples per word):
    /// returns the output column. Only active genes are computed, gene `g`
    /// into `buf[g * words..(g + 1) * words]`; `buf` is reused across calls
    /// and the slots of inactive genes keep stale words that no active gene
    /// reads. Bits past the last example are unspecified (an inverter sets
    /// them), so score with [`BitColumns::accuracy_of_packed`].
    pub(crate) fn eval_columns<'a>(
        &self,
        cols: &'a BitColumns,
        buf: &'a mut Vec<u64>,
    ) -> &'a [u64] {
        let words = cols.words_per_column();
        let active = self.active_mask();
        buf.resize(self.genes.len() * words, 0);
        for (g, gene) in self.genes.iter().enumerate() {
            if !active[g] {
                continue;
            }
            let (done, rest) = buf.split_at_mut(g * words);
            let signal = |idx: u32| -> &[u64] {
                let idx = idx as usize;
                if idx < self.num_inputs {
                    cols.column(idx)
                } else {
                    let g = idx - self.num_inputs;
                    &done[g * words..(g + 1) * words]
                }
            };
            let out = &mut rest[..words];
            let a = signal(gene.a);
            match gene.func {
                NodeFn::Not => out.iter_mut().zip(a).for_each(|(o, x)| *o = !x),
                NodeFn::And => {
                    let b = signal(gene.b);
                    out.iter_mut()
                        .zip(a.iter().zip(b))
                        .for_each(|(o, (x, y))| *o = x & y);
                }
                NodeFn::Xor => {
                    let b = signal(gene.b);
                    out.iter_mut()
                        .zip(a.iter().zip(b))
                        .for_each(|(o, (x, y))| *o = x ^ y);
                }
            }
        }
        let out = self.output as usize;
        if out < self.num_inputs {
            cols.column(out)
        } else {
            let g = out - self.num_inputs;
            &buf[g * words..(g + 1) * words]
        }
    }

    /// Accuracy over a dataset (bit-parallel).
    pub fn accuracy(&self, ds: &Dataset) -> f64 {
        if ds.is_empty() {
            return 1.0;
        }
        let cols = ds.bit_columns();
        cols.accuracy_of_packed(self.eval_columns(&cols, &mut Vec::new()))
    }

    /// Point-mutates each gene field independently with probability `rate`;
    /// the output connection mutates with the same probability. At least one
    /// field always mutates (the usual CGP guard against dead generations
    /// when the adapted rate gets small).
    pub fn mutate(&self, rate: f64, use_xor: bool, rng: &mut StdRng) -> Genome {
        let mut child = self.clone();
        let mut mutated = false;
        for (i, gene) in child.genes.iter_mut().enumerate() {
            let limit = (self.num_inputs + i) as u32;
            if rng.gen::<f64>() < rate {
                gene.func = random_fn(use_xor, rng);
                mutated = true;
            }
            if rng.gen::<f64>() < rate {
                gene.a = rng.gen_range(0..limit);
                mutated = true;
            }
            if rng.gen::<f64>() < rate {
                gene.b = rng.gen_range(0..limit);
                mutated = true;
            }
        }
        if rng.gen::<f64>() < rate {
            child.output = rng.gen_range(0..(self.num_inputs + self.genes.len()) as u32);
            mutated = true;
        }
        if !mutated && !child.genes.is_empty() {
            let g = rng.gen_range(0..child.genes.len());
            let limit = (self.num_inputs + g) as u32;
            match rng.gen_range(0..3) {
                0 => child.genes[g].func = random_fn(use_xor, rng),
                1 => child.genes[g].a = rng.gen_range(0..limit.max(1)),
                _ => child.genes[g].b = rng.gen_range(0..limit.max(1)),
            }
        }
        child
    }

    /// Encodes an existing single-output AIG as a genome, appending
    /// `padding` random non-functional genes as mutation headroom (Team 9
    /// sized the genome at twice the seed AIG). Complemented AIG edges
    /// become explicit inverter genes.
    ///
    /// # Panics
    ///
    /// Panics if the AIG does not have exactly one output.
    pub fn from_aig(aig: &Aig, padding: usize, use_xor: bool, rng: &mut StdRng) -> Genome {
        assert_eq!(aig.outputs().len(), 1, "bootstrap needs one output");
        let num_inputs = aig.num_inputs();
        let mut genes: Vec<Gene> = Vec::new();
        // signal index of each AIG node (uncomplemented form).
        let mut node_signal: Vec<Option<u32>> = vec![None; aig.num_nodes()];
        for i in 0..num_inputs {
            node_signal[i + 1] = Some(i as u32);
        }

        // Emits an inverter gene and returns its signal index.
        fn emit_not(genes: &mut Vec<Gene>, num_inputs: usize, src: u32) -> u32 {
            genes.push(Gene {
                func: NodeFn::Not,
                a: src,
                b: src,
            });
            (num_inputs + genes.len() - 1) as u32
        }

        // Resolve a literal to a signal index, materializing inverters.
        // Constant literals are encoded as x AND NOT x (false) via two genes
        // when needed — rare in practice because learners avoid constants.
        let mut const_false: Option<u32> = None;
        let mut resolve =
            |lit: Lit, genes: &mut Vec<Gene>, node_signal: &mut Vec<Option<u32>>| -> u32 {
                let base = if lit.is_constant() {
                    *const_false.get_or_insert_with(|| {
                        let not0 = emit_not(genes, num_inputs, 0);
                        genes.push(Gene {
                            func: NodeFn::And,
                            a: 0,
                            b: not0,
                        });
                        (num_inputs + genes.len() - 1) as u32
                    })
                } else {
                    node_signal[lit.node() as usize].expect("topological order")
                };
                // Constant FALSE (raw 0) maps to the base; TRUE (raw 1, i.e. the
                // complemented constant) and complemented node edges invert it.
                let want_invert = lit.is_complemented();
                if want_invert {
                    emit_not(genes, num_inputs, base)
                } else {
                    base
                }
            };

        for n in (num_inputs + 1)..aig.num_nodes() {
            let (f0, f1) = aig.fanins(n as u32);
            let a = resolve(f0, &mut genes, &mut node_signal);
            let b = resolve(f1, &mut genes, &mut node_signal);
            genes.push(Gene {
                func: NodeFn::And,
                a,
                b,
            });
            node_signal[n] = Some((num_inputs + genes.len() - 1) as u32);
        }
        let output = resolve(aig.outputs()[0], &mut genes, &mut node_signal);
        for _ in 0..padding {
            genes.push(random_gene(num_inputs + genes.len(), use_xor, rng));
        }
        Genome {
            num_inputs,
            genes,
            output,
        }
    }

    /// Decodes the phenotype into an AIG.
    pub fn to_aig(&self) -> Aig {
        let mut aig = Aig::new(self.num_inputs);
        let active = self.active_mask();
        let mut lits: Vec<Lit> = aig.inputs();
        for (g, gene) in self.genes.iter().enumerate() {
            let lit = if active[g] {
                let a = lits[gene.a as usize];
                match gene.func {
                    NodeFn::And => {
                        let b = lits[gene.b as usize];
                        aig.and(a, b)
                    }
                    NodeFn::Xor => {
                        let b = lits[gene.b as usize];
                        aig.xor(a, b)
                    }
                    NodeFn::Not => !a,
                }
            } else {
                Lit::FALSE // placeholder; never referenced by active genes
            };
            lits.push(lit);
        }
        aig.add_output(lits[self.output as usize]);
        aig.cleanup();
        aig
    }
}

fn random_fn(use_xor: bool, rng: &mut StdRng) -> NodeFn {
    match rng.gen_range(0..if use_xor { 3 } else { 2 }) {
        0 => NodeFn::And,
        1 => NodeFn::Not,
        _ => NodeFn::Xor,
    }
}

fn random_gene(limit: usize, use_xor: bool, rng: &mut StdRng) -> Gene {
    Gene {
        func: random_fn(use_xor, rng),
        a: rng.gen_range(0..limit as u32),
        b: rng.gen_range(0..limit as u32),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn random_genome_connections_point_backwards() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = Genome::random(4, 20, true, &mut rng);
        for (i, gene) in g.genes.iter().enumerate() {
            assert!((gene.a as usize) < 4 + i);
            assert!((gene.b as usize) < 4 + i);
        }
    }

    #[test]
    fn predict_matches_eval_columns() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = Genome::random(7, 30, true, &mut rng);
        let mut buf = Vec::new();
        // One word, then a partial second and third word.
        for n in [32u64, 65, 130] {
            let mut ds = Dataset::new(7);
            // The same patterns labelled by `predict`: its label column is
            // the expected output column.
            let mut predicted = Dataset::new(7);
            for m in 0..n {
                let p = Pattern::from_index(m * 37 % 128, 7);
                predicted.push(p.clone(), g.predict(&p));
                ds.push(p, m % 3 == 0);
            }
            let cols = ds.bit_columns();
            let out = g.eval_columns(&cols, &mut buf);
            let want = predicted.bit_columns();
            let last = cols.words_per_column() - 1;
            assert_eq!(out[..last], want.labels()[..last], "n={n}");
            assert_eq!(out[last] & cols.tail_mask(), want.labels()[last], "n={n}");
            assert_eq!(g.accuracy(&ds), ds.accuracy_of(|p| g.predict(p)), "n={n}");
        }
    }

    #[test]
    fn to_aig_matches_predict() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = Genome::random(4, 25, true, &mut rng);
        let aig = g.to_aig();
        for m in 0..16u64 {
            let p = Pattern::from_index(m, 4);
            let bits: Vec<bool> = p.iter().collect();
            assert_eq!(aig.eval(&bits)[0], g.predict(&p), "at {m:04b}");
        }
    }

    #[test]
    fn from_aig_preserves_function() {
        let mut aig = Aig::new(3);
        let (a, b, c) = (aig.input(0), aig.input(1), aig.input(2));
        let x = aig.xor(a, b);
        let f = aig.mux(c, x, !a);
        aig.add_output(f);
        let mut rng = StdRng::seed_from_u64(1);
        let genome = Genome::from_aig(&aig, 10, true, &mut rng);
        for m in 0..8u64 {
            let p = Pattern::from_index(m, 3);
            let bits: Vec<bool> = p.iter().collect();
            assert_eq!(genome.predict(&p), aig.eval(&bits)[0], "at {m:03b}");
        }
    }

    #[test]
    fn from_aig_handles_constant_output() {
        let aig = Aig::constant(2, true);
        let mut rng = StdRng::seed_from_u64(2);
        let genome = Genome::from_aig(&aig, 0, false, &mut rng);
        assert!(genome.predict(&Pattern::from_index(0, 2)));
        assert!(genome.predict(&Pattern::from_index(3, 2)));
    }

    #[test]
    fn phenotype_smaller_than_genome() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = Genome::random(4, 50, true, &mut rng);
        assert!(g.phenotype_size() <= g.len());
    }

    #[test]
    fn mutation_respects_connection_bounds() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = Genome::random(4, 30, true, &mut rng);
        let m = g.mutate(0.5, true, &mut rng);
        for (i, gene) in m.genes.iter().enumerate() {
            assert!((gene.a as usize) < 4 + i);
            assert!((gene.b as usize) < 4 + i);
        }
        assert!((m.output as usize) < 4 + m.len());
    }

    #[test]
    fn zero_rate_mutation_is_identity() {
        let mut rng = StdRng::seed_from_u64(13);
        let g = Genome::random(4, 10, true, &mut rng);
        let m = g.mutate(0.0, true, &mut rng);
        assert_eq!(g, m);
    }
}
