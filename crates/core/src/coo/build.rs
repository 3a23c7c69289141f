//! COO assembly: entry validation, lexicographic ordering, duplicate
//! combination.

use crate::error::{Result, TensorError};
use crate::scalar::Scalar;
use crate::sched::StructureId;
use crate::shape::Shape;

use super::{CooTensor, SortState};

pub(super) fn from_entries<S: Scalar>(
    shape: Shape,
    mut entries: Vec<(Vec<u32>, S)>,
) -> Result<CooTensor<S>> {
    for (coord, _) in &entries {
        shape.check_coord(coord)?;
    }
    entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));

    let order = shape.order();
    let mut inds: Vec<Vec<u32>> = vec![Vec::with_capacity(entries.len()); order];
    let mut vals: Vec<S> = Vec::with_capacity(entries.len());

    for (coord, v) in entries {
        let dup = vals
            .last()
            .is_some_and(|_| (0..order).all(|m| *inds[m].last().unwrap() == coord[m]));
        if dup {
            *vals.last_mut().unwrap() += v;
        } else {
            for (m, &c) in coord.iter().enumerate() {
                inds[m].push(c);
            }
            vals.push(v);
        }
    }

    Ok(CooTensor {
        shape,
        inds,
        vals,
        sort: SortState::Lexicographic((0..order).collect()),
        id: StructureId::new(),
    })
}

pub(super) fn from_parts<S: Scalar>(
    shape: Shape,
    inds: Vec<Vec<u32>>,
    vals: Vec<S>,
) -> Result<CooTensor<S>> {
    if inds.len() != shape.order() {
        return Err(TensorError::OrderMismatch {
            left: shape.order(),
            right: inds.len(),
        });
    }
    for (m, arr) in inds.iter().enumerate() {
        if arr.len() != vals.len() {
            return Err(TensorError::InvalidStructure(format!(
                "mode-{m} index array length {} != value count {}",
                arr.len(),
                vals.len()
            )));
        }
        let dim = shape.dim(m);
        if let Some(&bad) = arr.iter().find(|&&i| i >= dim) {
            return Err(TensorError::IndexOutOfBounds {
                mode: m,
                index: bad,
                dim,
            });
        }
    }
    Ok(CooTensor {
        shape,
        inds,
        vals,
        sort: SortState::Unsorted,
        id: StructureId::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_collapse_in_order() {
        let t = CooTensor::from_entries(
            Shape::new(vec![3]),
            vec![(vec![2], 1.0f32), (vec![2], 2.0), (vec![0], 3.0)],
        )
        .unwrap();
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.mode_inds(0), &[0, 2]);
        assert_eq!(t.vals(), &[3.0, 3.0]);
    }

    #[test]
    fn from_parts_keeps_given_order_and_marks_unsorted() {
        let t = CooTensor::from_parts(
            Shape::new(vec![4]),
            vec![vec![3, 0, 2]],
            vec![1.0f32, 2.0, 3.0],
        )
        .unwrap();
        assert_eq!(t.mode_inds(0), &[3, 0, 2]);
        assert_eq!(*t.sort_state(), SortState::Unsorted);
    }
}
