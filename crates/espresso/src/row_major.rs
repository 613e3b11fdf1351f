//! The row-major reference minimizer: the pre-columnar EXPAND →
//! IRREDUNDANT → REDUCE loop over cube-by-cube `contains` walks of the
//! pattern lists. Test-only: the columnar engine must match it cube for
//! cube. It uses only the crate's public API, so the unit tests
//! (`mod row_major` under `cfg(test)`) and `tests/properties.rs` (through
//! `#[path]`) compile the same file.

use super::{supercube, EspressoConfig};
use lsml_pla::{Cover, Cube, Dataset, Pattern};

/// The reference minimizer: the EXPAND → IRREDUNDANT → REDUCE loop
/// over cube-by-cube `contains` walks of the pattern lists.
pub fn minimize_dataset_row_major(ds: &Dataset, cfg: &EspressoConfig) -> Cover {
    let num_vars = ds.num_inputs();
    let positives: Vec<Pattern> = ds
        .iter()
        .filter(|&(_, o)| o)
        .map(|(p, _)| p.clone())
        .collect();
    let negatives: Vec<Pattern> = ds
        .iter()
        .filter(|&(_, o)| !o)
        .map(|(p, _)| p.clone())
        .collect();
    if positives.is_empty() {
        return Cover::new(num_vars);
    }
    if let Some(p) = positives.iter().find(|p| negatives.contains(p)) {
        panic!("contradictory labels for pattern {p}");
    }
    let seeds: Vec<Cube> = positives.iter().map(Cube::from_pattern).collect();
    let mut cover = expand_rows(num_vars, seeds, &positives, &negatives, cfg);
    irredundant_rows(&mut cover, &positives);
    if cfg.first_irredundant {
        return cover;
    }
    let mut best = cover.clone();
    for _ in 0..cfg.max_loops {
        reduce_rows(&mut cover, &positives);
        let seeds = cover.into_iter().collect();
        cover = expand_rows(num_vars, seeds, &positives, &negatives, cfg);
        irredundant_rows(&mut cover, &positives);
        if cost(&cover) < cost(&best) {
            best = cover.clone();
        } else {
            break;
        }
    }
    best
}

/// EXPAND: enlarge each seed cube literal-by-literal, blocked by the offset.
/// Seeds whose positive examples are already covered are skipped, so strong
/// expansion keeps the cube count low. (Row-major reference path.)
fn expand_rows(
    num_vars: usize,
    seeds: Vec<Cube>,
    positives: &[Pattern],
    negatives: &[Pattern],
    cfg: &EspressoConfig,
) -> Cover {
    let mut out = Cover::new(num_vars);
    let mut covered = vec![false; positives.len()];
    let mut expanded = 0usize;

    for seed in seeds {
        // Skip seeds that no longer contribute any uncovered positive.
        let contributes = positives
            .iter()
            .enumerate()
            .any(|(i, p)| !covered[i] && seed.contains(p));
        if !contributes {
            continue;
        }
        let cube = if expanded < cfg.max_expanded_cubes {
            expanded += 1;
            expand_cube_rows(&seed, negatives)
        } else {
            seed
        };
        for (i, p) in positives.iter().enumerate() {
            if !covered[i] && cube.contains(p) {
                covered[i] = true;
            }
        }
        out.push(cube);
    }
    out.remove_single_cube_containment();
    out
}

/// Expands one cube: greedily removes literals (in ascending order of how
/// many distance-1 offset minterms block them) as long as the enlarged cube
/// stays clear of every negative example. (Row-major reference path.)
fn expand_cube_rows(seed: &Cube, negatives: &[Pattern]) -> Cube {
    let mut cube = seed.clone();
    // Count, per literal, the offset patterns at distance 1 clashing exactly
    // on that literal — these definitely block its removal, so try the least
    // blocked literals first.
    let mut block = vec![0u32; cube.num_vars()];
    for r in negatives {
        let mut clash_var = None;
        let mut clashes = 0;
        for (var, pol) in cube.literals() {
            if r.get(var) != pol {
                clashes += 1;
                if clashes > 1 {
                    break;
                }
                clash_var = Some(var);
            }
        }
        if clashes == 1 {
            block[clash_var.expect("one clash")] += 1;
        }
    }
    let mut order: Vec<usize> = cube.literals().map(|(v, _)| v).collect();
    order.sort_by_key(|&v| (block[v], v));

    for v in order {
        let candidate = cube.without_literal(v);
        if !negatives.iter().any(|r| candidate.contains(r)) {
            cube = candidate;
        }
    }
    cube
}

/// IRREDUNDANT: drop cubes all of whose positive examples are multiply
/// covered. Cubes with more literals (smaller cubes) are dropped first.
/// (Row-major reference path.)
fn irredundant_rows(cover: &mut Cover, positives: &[Pattern]) {
    // multiplicity[i] = how many cubes cover positive example i.
    let mut multiplicity = vec![0u32; positives.len()];
    let mut covers: Vec<Vec<u32>> = Vec::with_capacity(cover.len());
    for cube in cover.iter() {
        let mut mine = Vec::new();
        for (i, p) in positives.iter().enumerate() {
            if cube.contains(p) {
                multiplicity[i] += 1;
                mine.push(i as u32);
            }
        }
        covers.push(mine);
    }
    drop_multiply_covered(cover, covers, &mut multiplicity);
}

/// REDUCE: shrink every cube to the supercube of the positive examples that
/// only it covers (dropping cubes that uniquely cover nothing).
/// (Row-major reference path.)
fn reduce_rows(cover: &mut Cover, positives: &[Pattern]) {
    let mut multiplicity = vec![0u32; positives.len()];
    for cube in cover.iter() {
        for (i, p) in positives.iter().enumerate() {
            if cube.contains(p) {
                multiplicity[i] += 1;
            }
        }
    }
    let num_vars = cover.num_vars();
    let mut reduced: Vec<Cube> = Vec::with_capacity(cover.len());
    for cube in cover.iter() {
        let unique: Vec<&Pattern> = positives
            .iter()
            .enumerate()
            .filter(|(i, p)| multiplicity[*i] == 1 && cube.contains(p))
            .map(|(_, p)| p)
            .collect();
        if unique.is_empty() {
            // Covered elsewhere: the cube would be redundant; drop it and
            // release its shared examples.
            for (i, p) in positives.iter().enumerate() {
                if cube.contains(p) {
                    multiplicity[i] -= 1;
                }
            }
            continue;
        }
        reduced.push(supercube(num_vars, unique.into_iter()));
    }
    *cover = Cover::from_cubes(num_vars, reduced);
}

/// Cover cost: primary = cube count, secondary = literal count.
fn cost(cover: &Cover) -> (usize, usize) {
    (cover.len(), cover.literal_count())
}

/// Drops cubes (most-literals first) whose positives are all multiply
/// covered.
fn drop_multiply_covered(cover: &mut Cover, covers: Vec<Vec<u32>>, multiplicity: &mut [u32]) {
    let mut order: Vec<usize> = (0..cover.len()).collect();
    order.sort_by_key(|&c| std::cmp::Reverse(cover[c].literal_count()));

    let mut dead = vec![false; cover.len()];
    for c in order {
        let removable = covers[c].iter().all(|&i| multiplicity[i as usize] >= 2);
        if removable {
            dead[c] = true;
            for &i in &covers[c] {
                multiplicity[i as usize] -= 1;
            }
        }
    }
    let mut keep = dead.iter().map(|d| !d);
    cover.cubes_mut().retain(|_| keep.next().expect("mask"));
}
