//! Equivalence of the dense fault store and the flat-address March kernel
//! with the original map-backed memory model.
//!
//! `reference::MemoryModel` below is the earlier `BTreeMap<(row, col),
//! Vec<FaultKind>>` implementation, kept verbatim as a test-only oracle, and
//! `reference_march` is the earlier `(row, col)` March loop. Random fault
//! sets (all six kinds, several kinds per cell, alias plus stuck-at on one
//! cell, coupling chains) are injected into both models, which then see the
//! same random `set_vsb`/`read`/`write` sequences and all four March tests;
//! every read, March result and counter must agree.

use proptest::prelude::*;
use pvtm_bist::march::{MarchFailure, MarchResult};
use pvtm_bist::{Fault, FaultKind, MarchTest, MemoryModel, Op, Order};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[allow(dead_code)]
mod reference {
    use pvtm_bist::{Fault, FaultKind};
    use std::collections::BTreeMap;

    /// A behavioural memory array (one bit per cell) with injected faults and a
    /// source-bias state that gates retention faults.
    #[derive(Debug, Clone)]
    pub struct MemoryModel {
        rows: usize,
        cols: usize,
        data: Vec<bool>,
        faults: BTreeMap<(usize, usize), Vec<FaultKind>>,
        /// victim lists per aggressor cell.
        coupling: BTreeMap<(usize, usize), Vec<(usize, usize)>>,
        vsb: f64,
        reads: u64,
        writes: u64,
    }

    impl MemoryModel {
        /// Creates a fault-free array initialized to all zeros.
        ///
        /// # Panics
        ///
        /// Panics if either dimension is zero.
        pub fn new(rows: usize, cols: usize) -> Self {
            assert!(rows > 0 && cols > 0, "memory must have rows and columns");
            Self {
                rows,
                cols,
                data: vec![false; rows * cols],
                faults: BTreeMap::new(),
                coupling: BTreeMap::new(),
                vsb: 0.0,
                reads: 0,
                writes: 0,
            }
        }

        /// Number of rows.
        pub fn rows(&self) -> usize {
            self.rows
        }

        /// Number of columns.
        pub fn cols(&self) -> usize {
            self.cols
        }

        /// Total cells.
        pub fn cells(&self) -> usize {
            self.rows * self.cols
        }

        /// Reads performed so far.
        pub fn read_count(&self) -> u64 {
            self.reads
        }

        /// Writes performed so far.
        pub fn write_count(&self) -> u64 {
            self.writes
        }

        /// Injects a fault.
        ///
        /// # Panics
        ///
        /// Panics if the fault (or its aggressor) is out of bounds.
        pub fn inject(&mut self, fault: Fault) {
            assert!(
                fault.row < self.rows && fault.col < self.cols,
                "fault location ({}, {}) out of bounds",
                fault.row,
                fault.col
            );
            if let FaultKind::CouplingInv { agg_row, agg_col } = fault.kind {
                assert!(
                    agg_row < self.rows && agg_col < self.cols,
                    "aggressor ({agg_row}, {agg_col}) out of bounds"
                );
                self.coupling
                    .entry((agg_row, agg_col))
                    .or_default()
                    .push((fault.row, fault.col));
            }
            if let FaultKind::AddressAlias { to_row, to_col } = fault.kind {
                assert!(
                    to_row < self.rows && to_col < self.cols,
                    "alias target ({to_row}, {to_col}) out of bounds"
                );
                assert!(
                    (to_row, to_col) != (fault.row, fault.col),
                    "alias must point elsewhere"
                );
            }
            self.faults
                .entry((fault.row, fault.col))
                .or_default()
                .push(fault.kind);
        }

        /// Number of injected faults.
        pub fn fault_count(&self) -> usize {
            self.faults.values().map(Vec::len).sum()
        }

        /// Sets the source-bias voltage (activates retention faults whose
        /// threshold is at or below it). Raising the bias immediately decays
        /// the stored 1 of every exposed retention-faulty cell.
        pub fn set_vsb(&mut self, vsb: f64) {
            assert!(vsb.is_finite() && vsb >= 0.0, "invalid vsb {vsb}");
            self.vsb = vsb;
            // Standby decay of exposed cells.
            let decayed: Vec<(usize, usize)> = self
                .faults
                .iter()
                .filter(|((_, _), kinds)| {
                    kinds
                        .iter()
                        .any(|k| matches!(k, FaultKind::Retention { min_vsb } if vsb >= *min_vsb))
                })
                .map(|(&loc, _)| loc)
                .collect();
            for (r, c) in decayed {
                self.data[r * self.cols + c] = false;
            }
        }

        /// Current source-bias voltage.
        pub fn vsb(&self) -> f64 {
            self.vsb
        }

        /// Raw index of a cell.
        #[inline]
        fn idx(&self, row: usize, col: usize) -> usize {
            debug_assert!(row < self.rows && col < self.cols);
            row * self.cols + col
        }

        /// Resolves address-decoder aliasing: the cell actually accessed.
        fn resolve(&self, row: usize, col: usize) -> (usize, usize) {
            if let Some(kinds) = self.faults.get(&(row, col)) {
                for k in kinds {
                    if let FaultKind::AddressAlias { to_row, to_col } = k {
                        return (*to_row, *to_col);
                    }
                }
            }
            (row, col)
        }

        /// Writes one bit.
        ///
        /// # Panics
        ///
        /// Panics on an out-of-bounds address.
        pub fn write(&mut self, row: usize, col: usize, value: bool) {
            assert!(row < self.rows && col < self.cols, "address out of bounds");
            self.writes += 1;
            let (row, col) = self.resolve(row, col);
            let old = self.data[self.idx(row, col)];
            let mut new = value;
            if let Some(kinds) = self.faults.get(&(row, col)) {
                for k in kinds {
                    match k {
                        FaultKind::StuckAt(v) => new = *v,
                        FaultKind::TransitionUp if !old && value => new = old,
                        FaultKind::TransitionDown if old && !value => new = old,
                        _ => {}
                    }
                }
            }
            let i = self.idx(row, col);
            let transitioned = self.data[i] != new;
            self.data[i] = new;
            // Retention faults swallow a freshly written 1 at high bias.
            if new && self.retention_exposed(row, col) {
                self.data[i] = false;
            }
            if transitioned {
                self.fire_coupling(row, col);
            }
        }

        /// Reads one bit (fault behaviour applied).
        ///
        /// # Panics
        ///
        /// Panics on an out-of-bounds address.
        pub fn read(&mut self, row: usize, col: usize) -> bool {
            assert!(row < self.rows && col < self.cols, "address out of bounds");
            self.reads += 1;
            let (row, col) = self.resolve(row, col);
            let i = self.idx(row, col);
            if self.data[i] && self.retention_exposed(row, col) {
                self.data[i] = false;
            }
            let mut v = self.data[i];
            if let Some(kinds) = self.faults.get(&(row, col)) {
                for k in kinds {
                    if let FaultKind::StuckAt(s) = k {
                        v = *s;
                    }
                }
            }
            v
        }

        fn retention_exposed(&self, row: usize, col: usize) -> bool {
            self.faults
                .get(&(row, col))
                .map(|kinds| {
                    kinds.iter().any(
                        |k| matches!(k, FaultKind::Retention { min_vsb } if self.vsb >= *min_vsb),
                    )
                })
                .unwrap_or(false)
        }

        fn fire_coupling(&mut self, row: usize, col: usize) {
            if let Some(victims) = self.coupling.get(&(row, col)).cloned() {
                for (vr, vc) in victims {
                    let i = self.idx(vr, vc);
                    self.data[i] = !self.data[i];
                }
            }
        }
    }
}

/// The earlier March loop: `(row, col)` addresses through the public,
/// bounds-checked `read`/`write`.
fn reference_march(test: &MarchTest, memory: &mut reference::MemoryModel) -> MarchResult {
    let rows = memory.rows();
    let cols = memory.cols();
    let n = rows * cols;
    let mut failures = Vec::new();
    let mut operations = 0u64;
    for (ei, element) in test.elements().iter().enumerate() {
        let addresses: Box<dyn Iterator<Item = usize>> = match element.order {
            Order::Up | Order::Either => Box::new(0..n),
            Order::Down => Box::new((0..n).rev()),
        };
        for addr in addresses {
            let (row, col) = (addr / cols, addr % cols);
            for (oi, op) in element.ops.iter().enumerate() {
                operations += 1;
                match op {
                    Op::W0 => memory.write(row, col, false),
                    Op::W1 => memory.write(row, col, true),
                    Op::R0 | Op::R1 => {
                        let expected = matches!(op, Op::R1);
                        if memory.read(row, col) != expected {
                            failures.push(MarchFailure {
                                row,
                                col,
                                element: ei,
                                op: oi,
                            });
                        }
                    }
                }
            }
        }
    }
    MarchResult {
        failures,
        operations,
    }
}

fn all_tests() -> [MarchTest; 4] {
    [
        MarchTest::mats_plus(),
        MarchTest::march_c_minus(),
        MarchTest::march_a(),
        MarchTest::march_ss(),
    ]
}

/// Source-bias levels the sequences switch between; retention thresholds
/// are drawn from the same lattice so `vsb == min_vsb` edges occur.
const LEVELS: [f64; 5] = [0.0, 0.15, 0.25, 0.35, 0.5];

/// A cell, drawn from the first few cells half of the time so that several
/// faults land on one cell and coupling chains form.
fn cell(rng: &mut StdRng, rows: usize, cols: usize) -> (usize, usize) {
    let hot = (rows * cols).min(4);
    let i = if rng.gen_bool(0.5) {
        rng.gen_range(0..hot)
    } else {
        rng.gen_range(0..rows * cols)
    };
    (i / cols, i % cols)
}

fn other_cell(rng: &mut StdRng, rows: usize, cols: usize, not: (usize, usize)) -> (usize, usize) {
    loop {
        let c = cell(rng, rows, cols);
        if c != not {
            return c;
        }
    }
}

/// `n` random faults of all six kinds (coupling and alias only when the
/// array has a second cell), plus, half of the time, an alias and a
/// stuck-at on one cell in random order.
fn random_faults(rng: &mut StdRng, rows: usize, cols: usize, n: usize) -> Vec<Fault> {
    let multi = rows * cols > 1;
    let mut faults = Vec::with_capacity(n + 2);
    for _ in 0..n {
        let (row, col) = cell(rng, rows, cols);
        let kind = match rng.gen_range(0..if multi { 6 } else { 4 }) {
            0 => FaultKind::StuckAt(rng.gen()),
            1 => FaultKind::TransitionUp,
            2 => FaultKind::TransitionDown,
            3 => FaultKind::Retention {
                min_vsb: if rng.gen_bool(0.05) {
                    f64::NAN
                } else {
                    LEVELS[rng.gen_range(0..LEVELS.len())]
                },
            },
            4 => {
                let (agg_row, agg_col) = other_cell(rng, rows, cols, (row, col));
                FaultKind::CouplingInv { agg_row, agg_col }
            }
            _ => {
                let (to_row, to_col) = other_cell(rng, rows, cols, (row, col));
                FaultKind::AddressAlias { to_row, to_col }
            }
        };
        faults.push(Fault { row, col, kind });
    }
    if multi && rng.gen_bool(0.5) {
        let (row, col) = cell(rng, rows, cols);
        let (to_row, to_col) = other_cell(rng, rows, cols, (row, col));
        let mut pair = [
            Fault {
                row,
                col,
                kind: FaultKind::AddressAlias { to_row, to_col },
            },
            Fault {
                row,
                col,
                kind: FaultKind::StuckAt(rng.gen()),
            },
        ];
        if rng.gen() {
            pair.reverse();
        }
        faults.extend(pair);
    }
    faults
}

fn same_counters(
    dense: &MemoryModel,
    reference: &reference::MemoryModel,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(dense.read_count(), reference.read_count());
    prop_assert_eq!(dense.write_count(), reference.write_count());
    prop_assert_eq!(dense.fault_count(), reference.fault_count());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn dense_store_matches_reference(
        rows in 1usize..7,
        cols in 1usize..7,
        n_faults in 0usize..14,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dense = MemoryModel::new(rows, cols);
        let mut reference = reference::MemoryModel::new(rows, cols);
        for fault in random_faults(&mut rng, rows, cols, n_faults) {
            dense.inject(fault);
            reference.inject(fault);
        }
        same_counters(&dense, &reference)?;
        let tests = all_tests();
        for step in 0..rng.gen_range(0..80) {
            match rng.gen_range(0..10) {
                0 | 1 => {
                    let vsb = LEVELS[rng.gen_range(0..LEVELS.len())];
                    dense.set_vsb(vsb);
                    reference.set_vsb(vsb);
                }
                2..=4 => {
                    let (row, col) = (rng.gen_range(0..rows), rng.gen_range(0..cols));
                    let (d, r) = (dense.read(row, col), reference.read(row, col));
                    prop_assert!(d == r, "step {step}: read ({row}, {col}) {d} != {r}");
                }
                5..=7 => {
                    let (row, col) = (rng.gen_range(0..rows), rng.gen_range(0..cols));
                    let value = rng.gen();
                    dense.write(row, col, value);
                    reference.write(row, col, value);
                }
                _ => {
                    let test = &tests[rng.gen_range(0..tests.len())];
                    prop_assert_eq!(test.run(&mut dense), reference_march(test, &mut reference));
                }
            }
        }
        // Every March test at every bias level, from the state left behind.
        for &vsb in &LEVELS {
            dense.set_vsb(vsb);
            reference.set_vsb(vsb);
            for test in &tests {
                prop_assert_eq!(test.run(&mut dense), reference_march(test, &mut reference));
            }
        }
        for row in 0..rows {
            for col in 0..cols {
                prop_assert_eq!(dense.read(row, col), reference.read(row, col));
            }
        }
        same_counters(&dense, &reference)?;
    }
}
