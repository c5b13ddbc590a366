//! References computed apart from the program: a nearest-class-mean
//! classifier, brute-force nearest neighbours for recall, and the checks
//! every prediction must pass.

use crate::gen::Rows;

/// How far a model's accuracy may fall below the nearest-class-mean
/// reference fitted on the same labelled rows.
pub const ACCURACY_MARGIN: f64 = 0.03;
/// Lowest sampled HNSW recall@k accepted.
pub const RECALL_FLOOR: f64 = 0.9;

/// Nearest-class-mean classifier fitted on labelled rows. On isotropic
/// Gaussian clusters it is close to the best linear rule, so a graph model
/// trained on the same labels should reach it.
pub struct NearestMean {
    means: Vec<Vec<f64>>,
}

impl NearestMean {
    pub fn fit(rows: &Rows, labelled: &[usize], classes: usize) -> Self {
        let mut means = vec![vec![0.0f64; rows.dim]; classes];
        let mut counts = vec![0usize; classes];
        for &i in labelled {
            let y = rows.labels[i];
            counts[y] += 1;
            for (m, &v) in means[y].iter_mut().zip(rows.row(i)) {
                *m += f64::from(v);
            }
        }
        for (mean, &c) in means.iter_mut().zip(&counts) {
            assert!(c > 0, "every class needs a labelled row");
            mean.iter_mut().for_each(|m| *m /= c as f64);
        }
        NearestMean { means }
    }

    pub fn predict(&self, row: &[f32]) -> usize {
        let dist = |mean: &[f64]| mean.iter().zip(row).map(|(m, &v)| (m - f64::from(v)).powi(2)).sum::<f64>();
        (0..self.means.len())
            .min_by(|&a, &b| dist(&self.means[a]).total_cmp(&dist(&self.means[b])))
            .unwrap_or(0)
    }

    pub fn accuracy(&self, rows: &Rows, ids: &[usize]) -> f64 {
        let hits = ids.iter().filter(|&&i| self.predict(rows.row(i)) == rows.labels[i]).count();
        hits as f64 / ids.len().max(1) as f64
    }
}

/// Index of the largest entry (first on ties).
pub fn argmax(values: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

/// Checks an `n x classes` prediction matrix (row-major) for shape and
/// finiteness, and returns the accuracy of its row-wise argmax on `ids`.
pub fn check_predictions(
    data: &[f32],
    shape: (usize, usize),
    n: usize,
    classes: usize,
    labels: &[usize],
    ids: &[usize],
) -> Result<f64, String> {
    if shape != (n, classes) || data.len() != n * classes {
        return Err(format!("predictions have shape {shape:?}, expected ({n}, {classes})"));
    }
    if let Some(at) = data.iter().position(|v| !v.is_finite()) {
        return Err(format!("prediction entry {at} is not finite"));
    }
    let hits = ids.iter().filter(|&&i| argmax(&data[i * classes..(i + 1) * classes]) == labels[i]).count();
    Ok(hits as f64 / ids.len().max(1) as f64)
}

/// Checks one served probability vector: `classes` finite entries that sum
/// to 1 within `1e-5`.
pub fn check_proba(proba: &[f32], classes: usize) -> Result<(), String> {
    if proba.len() != classes {
        return Err(format!("proba has {} entries, expected {classes}", proba.len()));
    }
    if proba.iter().any(|p| !p.is_finite() || *p < 0.0) {
        return Err(format!("proba {proba:?} has a negative or non-finite entry"));
    }
    let sum: f64 = proba.iter().map(|&p| f64::from(p)).sum();
    if (sum - 1.0).abs() > 1e-5 {
        return Err(format!("proba {proba:?} sums to {sum}"));
    }
    Ok(())
}

/// The `k` rows of `x` (`n x dim`, row-major) nearest to row `q` in
/// Euclidean distance, `q` itself excluded, by exhaustive search.
pub fn brute_knn(x: &[f32], dim: usize, q: usize, k: usize) -> Vec<usize> {
    let query = &x[q * dim..(q + 1) * dim];
    let mut scored: Vec<(f32, usize)> = x
        .chunks_exact(dim)
        .enumerate()
        .filter(|&(i, _)| i != q)
        .map(|(i, row)| (row.iter().zip(query).map(|(a, b)| (a - b) * (a - b)).sum::<f32>(), i))
        .collect();
    let k = k.min(scored.len());
    scored.select_nth_unstable_by(k.saturating_sub(1), |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scored[..k].iter().map(|&(_, i)| i).collect()
}

/// Share of `exact` that `approx` found.
pub fn recall(approx: &[usize], exact: &[usize]) -> f64 {
    let found = exact.iter().filter(|i| approx.contains(i)).count();
    found as f64 / exact.len().max(1) as f64
}

/// Query rows for a sampled recall: `count` ids spread evenly over `0..n`.
pub fn sample_ids(n: usize, count: usize) -> Vec<usize> {
    let count = count.min(n).max(1);
    (0..count).map(|i| i * n / count).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(points: &[[f32; 2]], labels: &[usize]) -> Rows {
        Rows { dim: 2, x: points.iter().flatten().copied().collect(), labels: labels.to_vec() }
    }

    #[test]
    fn nearest_mean_on_a_hand_made_case() {
        // Class 0 around (0, 0), class 1 around (10, 0); the last two rows
        // are unlabelled queries, one mislabelled on purpose.
        let r = rows(
            &[[0.0, 1.0], [0.0, -1.0], [10.0, 1.0], [10.0, -1.0], [4.0, 0.0], [6.0, 0.0]],
            &[0, 0, 1, 1, 0, 0],
        );
        let ncm = NearestMean::fit(&r, &[0, 1, 2, 3], 2);
        assert_eq!(ncm.predict(&[4.0, 0.0]), 0);
        assert_eq!(ncm.predict(&[6.0, 0.0]), 1);
        assert_eq!(ncm.accuracy(&r, &[4, 5]), 0.5);
        assert_eq!(ncm.accuracy(&r, &[0, 1, 2, 3]), 1.0);
    }

    #[test]
    fn prediction_checks_reject_bad_shapes_and_values() {
        let labels = [0, 1];
        let good = [2.0, 1.0, 0.0, 3.0];
        assert_eq!(check_predictions(&good, (2, 2), 2, 2, &labels, &[0, 1]), Ok(1.0));
        assert!(check_predictions(&good, (1, 4), 2, 2, &labels, &[0, 1]).is_err());
        assert!(check_predictions(&[f32::NAN, 1.0, 0.0, 3.0], (2, 2), 2, 2, &labels, &[0]).is_err());
        assert!(check_proba(&[0.25, 0.75], 2).is_ok());
        assert!(check_proba(&[0.25, 0.70], 2).is_err());
        assert!(check_proba(&[0.5, 0.5], 3).is_err());
    }

    #[test]
    fn brute_knn_and_recall() {
        let x = [0.0f32, 0.0, 1.0, 0.0, 3.0, 0.0, 7.0, 0.0];
        let mut nn = brute_knn(&x, 2, 1, 2);
        nn.sort_unstable();
        assert_eq!(nn, vec![0, 2]);
        assert_eq!(recall(&[0, 3], &[0, 2]), 0.5);
        assert_eq!(sample_ids(10, 5), vec![0, 2, 4, 6, 8]);
    }
}
