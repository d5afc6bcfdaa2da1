//! Network topologies for multi-hop all-reduce.
//!
//! The paper evaluates three synchronization fabrics: a ring (RAR), a 2D
//! torus (TAR), and a star (the parameter-server baseline). [`Topology`]
//! captures the shape; neighbour relations are exposed so collectives can
//! route messages and the simulator can charge per-link times.

use std::fmt;

/// A cluster interconnect shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// A unidirectional ring of `workers` nodes (ring all-reduce, RAR).
    Ring {
        /// Number of workers.
        workers: usize,
    },
    /// A 2D torus of `rows × cols` nodes (2D-torus all-reduce, TAR).
    Torus {
        /// Ring length in the vertical dimension.
        rows: usize,
        /// Ring length in the horizontal dimension.
        cols: usize,
    },
    /// A star: `workers` leaves attached to one central server (PS).
    Star {
        /// Number of worker leaves (the server is extra).
        workers: usize,
    },
}

impl Topology {
    /// Ring topology over `workers` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `workers < 2`.
    #[must_use]
    pub fn ring(workers: usize) -> Self {
        assert!(workers >= 2, "ring needs at least 2 workers");
        Self::Ring { workers }
    }

    /// Torus topology over `rows × cols` nodes.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is < 2.
    #[must_use]
    pub fn torus(rows: usize, cols: usize) -> Self {
        assert!(rows >= 2 && cols >= 2, "torus needs both dimensions >= 2");
        Self::Torus { rows, cols }
    }

    /// Square torus over `workers` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is not a perfect square of side >= 2.
    #[must_use]
    pub fn square_torus(workers: usize) -> Self {
        let side = (workers as f64).sqrt().round() as usize;
        assert_eq!(
            side * side,
            workers,
            "worker count {workers} is not a perfect square"
        );
        Self::torus(side, side)
    }

    /// Star topology over `workers` leaves.
    ///
    /// # Panics
    ///
    /// Panics if `workers < 1`.
    #[must_use]
    pub fn star(workers: usize) -> Self {
        assert!(workers >= 1, "star needs at least 1 worker");
        Self::Star { workers }
    }

    /// Number of gradient-computing workers.
    #[must_use]
    pub fn workers(self) -> usize {
        match self {
            Self::Ring { workers } | Self::Star { workers } => workers,
            Self::Torus { rows, cols } => rows * cols,
        }
    }

    /// Successor of `w` on the ring (ring topology and torus row/col rings).
    ///
    /// # Panics
    ///
    /// Panics for [`Topology::Star`] (a star has no ring successor) or if
    /// `w` is out of range.
    #[must_use]
    pub fn ring_next(self, w: usize) -> usize {
        match self {
            Self::Ring { workers } => {
                assert!(w < workers, "worker {w} out of range");
                (w + 1) % workers
            }
            Self::Torus { .. } => panic!("torus routing is per-dimension; use torus_coords"),
            Self::Star { .. } => panic!("star topology has no ring successor"),
        }
    }

    /// `(row, col)` coordinates of worker `w` in a torus (row-major).
    ///
    /// # Panics
    ///
    /// Panics for non-torus topologies or out-of-range `w`.
    #[must_use]
    pub fn torus_coords(self, w: usize) -> (usize, usize) {
        match self {
            Self::Torus { rows, cols } => {
                assert!(w < rows * cols, "worker {w} out of range");
                (w / cols, w % cols)
            }
            _ => panic!("torus_coords on non-torus topology"),
        }
    }

    /// Worker index at `(row, col)` in a torus.
    ///
    /// # Panics
    ///
    /// Panics for non-torus topologies or out-of-range coordinates.
    #[must_use]
    pub fn torus_index(self, row: usize, col: usize) -> usize {
        match self {
            Self::Torus { rows, cols } => {
                assert!(row < rows && col < cols, "({row},{col}) out of range");
                row * cols + col
            }
            _ => panic!("torus_index on non-torus topology"),
        }
    }

    /// Short name used in reports ("RAR", "TAR", "PS").
    #[must_use]
    pub fn short_name(self) -> &'static str {
        match self {
            Self::Ring { .. } => "RAR",
            Self::Torus { .. } => "TAR",
            Self::Star { .. } => "PS",
        }
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Ring { workers } => write!(f, "ring({workers})"),
            Self::Torus { rows, cols } => write!(f, "torus({rows}x{cols})"),
            Self::Star { workers } => write!(f, "star({workers})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_next_wraps() {
        let t = Topology::ring(4);
        assert_eq!(t.ring_next(0), 1);
        assert_eq!(t.ring_next(3), 0);
    }

    #[test]
    fn torus_coords_round_trip() {
        let t = Topology::torus(3, 4);
        for w in 0..12 {
            let (r, c) = t.torus_coords(w);
            assert_eq!(t.torus_index(r, c), w);
        }
    }

    #[test]
    fn square_torus_sides() {
        assert_eq!(Topology::square_torus(16), Topology::torus(4, 4));
        assert_eq!(Topology::square_torus(16).workers(), 16);
    }

    #[test]
    fn worker_counts() {
        assert_eq!(Topology::ring(5).workers(), 5);
        assert_eq!(Topology::torus(2, 3).workers(), 6);
        assert_eq!(Topology::star(7).workers(), 7);
    }

    #[test]
    fn short_names() {
        assert_eq!(Topology::ring(3).short_name(), "RAR");
        assert_eq!(Topology::torus(2, 2).short_name(), "TAR");
        assert_eq!(Topology::star(3).short_name(), "PS");
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn non_square_torus_panics() {
        let _ = Topology::square_torus(12);
    }

    #[test]
    #[should_panic(expected = "no ring successor")]
    fn star_ring_next_panics() {
        let _ = Topology::star(3).ring_next(0);
    }
}
