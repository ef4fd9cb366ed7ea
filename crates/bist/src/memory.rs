//! Behavioural memory array with fault injection.
//!
//! # Store layout
//!
//! Faults live in a dense per-cell store indexed by the flat address
//! `row * cols + col`, so the common cell costs two slice loads per access:
//!
//! - `hold: Vec<f64>` — each cell's lowest retention threshold, +∞ when the
//!   cell has none. A cell with several retention faults decays when *any*
//!   threshold is reached, which is the same test as reaching the lowest.
//! - `flags: Vec<u8>` — two bits per cell: `RARE` (the cell has entries in
//!   the side table) and `AGGRESSOR` (the cell drives coupling faults).
//! - a side table keyed by flat address holding the rare kinds (stuck-at,
//!   transition, address alias) in injection order, because order decides
//!   behaviour: the last stuck-at wins and the first alias wins;
//! - victim lists keyed by the aggressor's flat address, read only when the
//!   aggressor's `AGGRESSOR` bit is set.
//!
//! March tests walk flat addresses through the crate-private
//! `read_addr`/`write_addr`; the public [`MemoryModel::read`] and
//! [`MemoryModel::write`] check bounds and delegate to the same code.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A functional fault attached to one cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The cell always reads the given value; writes are ignored.
    StuckAt(bool),
    /// The cell cannot make a 0 → 1 transition (writes of 1 over a stored 0
    /// are lost); 1 → 0 still works.
    TransitionUp,
    /// The cell cannot make a 1 → 0 transition.
    TransitionDown,
    /// Inversion coupling: whenever the aggressor cell *transitions*, this
    /// victim cell inverts.
    CouplingInv {
        /// Row of the aggressor cell.
        agg_row: usize,
        /// Column of the aggressor cell.
        agg_col: usize,
    },
    /// Retention (hold) fault: a stored 1 decays to 0 whenever the array's
    /// source-bias voltage is at or above `min_vsb`. This is the paper's
    /// hold-failure fault class — latent at low source bias, exposed as the
    /// calibration loop raises it.
    Retention {
        /// Lowest source bias \[V\] at which the cell loses its data.
        min_vsb: f64,
    },
    /// Address-decoder fault: accesses to this cell are redirected to
    /// another cell (the addressed cell is never actually reached).
    AddressAlias {
        /// Row actually accessed.
        to_row: usize,
        /// Column actually accessed.
        to_col: usize,
    },
}

/// A fault instance: location plus kind.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fault {
    /// Cell row.
    pub row: usize,
    /// Cell column.
    pub col: usize,
    /// Fault behaviour.
    pub kind: FaultKind,
}

/// Flag bit: the cell has stuck-at, transition or alias faults in the side
/// table.
const RARE: u8 = 1;
/// Flag bit: the cell is the aggressor of at least one coupling fault.
const AGGRESSOR: u8 = 2;

/// A behavioural memory array (one bit per cell) with injected faults and a
/// source-bias state that gates retention faults.
#[derive(Debug, Clone)]
pub struct MemoryModel {
    rows: usize,
    cols: usize,
    data: Vec<bool>,
    /// Lowest retention threshold per cell \[V\], +∞ when the cell has none.
    hold: Vec<f64>,
    /// `RARE` / `AGGRESSOR` bits per cell.
    flags: Vec<u8>,
    /// Stuck-at, transition and alias faults per cell, in injection order.
    rare: BTreeMap<usize, Vec<FaultKind>>,
    /// Victim cells per aggressor cell, in injection order.
    coupling: BTreeMap<usize, Vec<usize>>,
    faults: usize,
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
        let cells = rows * cols;
        Self {
            rows,
            cols,
            data: vec![false; cells],
            hold: vec![f64::INFINITY; cells],
            flags: vec![0; cells],
            rare: BTreeMap::new(),
            coupling: BTreeMap::new(),
            faults: 0,
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
    /// Panics if the fault (or its aggressor) is out of bounds, if a
    /// coupling names its own victim as aggressor, or if an alias points at
    /// its own cell.
    pub fn inject(&mut self, fault: Fault) {
        assert!(
            fault.row < self.rows && fault.col < self.cols,
            "fault location ({}, {}) out of bounds",
            fault.row,
            fault.col
        );
        let i = self.idx(fault.row, fault.col);
        match fault.kind {
            FaultKind::CouplingInv { agg_row, agg_col } => {
                assert!(
                    agg_row < self.rows && agg_col < self.cols,
                    "aggressor ({agg_row}, {agg_col}) out of bounds"
                );
                assert!(
                    (agg_row, agg_col) != (fault.row, fault.col),
                    "coupling must name another cell"
                );
                let a = self.idx(agg_row, agg_col);
                self.coupling.entry(a).or_default().push(i);
                self.flags[a] |= AGGRESSOR;
            }
            FaultKind::Retention { min_vsb } => self.hold[i] = self.hold[i].min(min_vsb),
            FaultKind::AddressAlias { to_row, to_col } => {
                assert!(
                    to_row < self.rows && to_col < self.cols,
                    "alias target ({to_row}, {to_col}) out of bounds"
                );
                assert!(
                    (to_row, to_col) != (fault.row, fault.col),
                    "alias must point elsewhere"
                );
                self.push_rare(i, fault.kind);
            }
            FaultKind::StuckAt(_) | FaultKind::TransitionUp | FaultKind::TransitionDown => {
                self.push_rare(i, fault.kind)
            }
        }
        self.faults += 1;
    }

    fn push_rare(&mut self, i: usize, kind: FaultKind) {
        self.rare.entry(i).or_default().push(kind);
        self.flags[i] |= RARE;
    }

    /// Number of injected faults.
    pub fn fault_count(&self) -> usize {
        self.faults
    }

    /// Sets the source-bias voltage (activates retention faults whose
    /// threshold is at or below it). Raising the bias immediately decays
    /// the stored 1 of every exposed retention-faulty cell.
    pub fn set_vsb(&mut self, vsb: f64) {
        assert!(vsb.is_finite() && vsb >= 0.0, "invalid vsb {vsb}");
        self.vsb = vsb;
        // Standby decay of exposed cells.
        for (d, &h) in self.data.iter_mut().zip(&self.hold) {
            if vsb >= h {
                *d = false;
            }
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

    /// The side-table faults of cell `i` (empty unless its `RARE` bit is
    /// set).
    #[inline]
    fn rare_kinds(&self, i: usize) -> &[FaultKind] {
        if self.flags[i] & RARE == 0 {
            return &[];
        }
        self.rare.get(&i).map_or(&[], Vec::as_slice)
    }

    /// Resolves address-decoder aliasing: the cell actually accessed.
    #[inline]
    fn resolve(&self, i: usize) -> usize {
        self.rare_kinds(i)
            .iter()
            .find_map(|k| match *k {
                FaultKind::AddressAlias { to_row, to_col } => Some(to_row * self.cols + to_col),
                _ => None,
            })
            .unwrap_or(i)
    }

    /// Writes one bit.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-bounds address.
    pub fn write(&mut self, row: usize, col: usize, value: bool) {
        assert!(row < self.rows && col < self.cols, "address out of bounds");
        self.write_addr(row * self.cols + col, value);
    }

    /// Writes one bit at flat address `addr` (`row * cols + col`, checked
    /// by the slice index only).
    #[inline]
    pub(crate) fn write_addr(&mut self, addr: usize, value: bool) {
        self.writes += 1;
        if self.flags[addr] == 0 {
            // No alias, no side-table kinds, no victims: only retention
            // applies, and it swallows a freshly written 1 at high bias.
            self.data[addr] = value && self.vsb < self.hold[addr];
        } else {
            self.write_flagged(addr, value);
        }
    }

    /// The write of a flagged cell: alias, side-table kinds and coupling.
    fn write_flagged(&mut self, addr: usize, value: bool) {
        let i = self.resolve(addr);
        let old = self.data[i];
        let mut new = value;
        for k in self.rare_kinds(i) {
            match k {
                FaultKind::StuckAt(v) => new = *v,
                FaultKind::TransitionUp if !old && value => new = old,
                FaultKind::TransitionDown if old && !value => new = old,
                _ => {}
            }
        }
        self.data[i] = new && self.vsb < self.hold[i];
        if old != new && self.flags[i] & AGGRESSOR != 0 {
            self.fire_coupling(i);
        }
    }

    /// Reads one bit (fault behaviour applied).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-bounds address.
    pub fn read(&mut self, row: usize, col: usize) -> bool {
        assert!(row < self.rows && col < self.cols, "address out of bounds");
        self.read_addr(row * self.cols + col)
    }

    /// Reads one bit at flat address `addr` (`row * cols + col`, checked
    /// by the slice index only). An exposed retention fault decays the
    /// stored 1 before it is read.
    #[inline]
    pub(crate) fn read_addr(&mut self, addr: usize) -> bool {
        self.reads += 1;
        if self.flags[addr] == 0 {
            let v = self.data[addr] && self.vsb < self.hold[addr];
            self.data[addr] = v;
            v
        } else {
            self.read_flagged(addr)
        }
    }

    /// The read of a flagged cell: alias and stuck-at.
    fn read_flagged(&mut self, addr: usize) -> bool {
        let i = self.resolve(addr);
        let mut v = self.data[i] && self.vsb < self.hold[i];
        self.data[i] = v;
        for k in self.rare_kinds(i) {
            if let FaultKind::StuckAt(s) = k {
                v = *s;
            }
        }
        v
    }

    fn fire_coupling(&mut self, i: usize) {
        if let Some(victims) = self.coupling.get(&i) {
            for &v in victims {
                self.data[v] = !self.data[v];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_memory_round_trips() {
        let mut m = MemoryModel::new(4, 4);
        m.write(2, 3, true);
        assert!(m.read(2, 3));
        m.write(2, 3, false);
        assert!(!m.read(2, 3));
        assert_eq!(m.write_count(), 2);
        assert_eq!(m.read_count(), 2);
    }

    #[test]
    fn stuck_at_ignores_writes() {
        let mut m = MemoryModel::new(2, 2);
        m.inject(Fault {
            row: 0,
            col: 0,
            kind: FaultKind::StuckAt(true),
        });
        m.write(0, 0, false);
        assert!(m.read(0, 0));
    }

    #[test]
    fn transition_up_blocks_only_rising_writes() {
        let mut m = MemoryModel::new(2, 2);
        m.inject(Fault {
            row: 1,
            col: 1,
            kind: FaultKind::TransitionUp,
        });
        m.write(1, 1, true); // 0 -> 1 blocked
        assert!(!m.read(1, 1));
        // A cell that is already 1 can still be written to 0 ... first
        // force it to 1 through the data path? Not possible for this fault;
        // verify 1 -> 0 path with TransitionDown on another cell instead.
        m.inject(Fault {
            row: 0,
            col: 0,
            kind: FaultKind::TransitionDown,
        });
        m.write(0, 0, true);
        assert!(m.read(0, 0));
        m.write(0, 0, false); // 1 -> 0 blocked
        assert!(m.read(0, 0));
    }

    #[test]
    fn coupling_inverts_victim_on_aggressor_transition() {
        let mut m = MemoryModel::new(2, 2);
        m.inject(Fault {
            row: 0,
            col: 1,
            kind: FaultKind::CouplingInv {
                agg_row: 0,
                agg_col: 0,
            },
        });
        m.write(0, 1, false);
        m.write(0, 0, true); // aggressor transitions: victim inverts
        assert!(m.read(0, 1));
        m.write(0, 0, true); // no transition: victim unchanged
        assert!(m.read(0, 1));
    }

    #[test]
    fn retention_fault_gated_by_vsb() {
        let mut m = MemoryModel::new(2, 2);
        m.inject(Fault {
            row: 1,
            col: 0,
            kind: FaultKind::Retention { min_vsb: 0.3 },
        });
        m.write(1, 0, true);
        assert!(m.read(1, 0), "below threshold the cell holds");
        m.set_vsb(0.2);
        assert!(m.read(1, 0), "still below threshold");
        m.set_vsb(0.3);
        assert!(!m.read(1, 0), "at threshold the 1 decays");
        // Writing a 1 at high bias is immediately lost.
        m.write(1, 0, true);
        assert!(!m.read(1, 0));
        // Back at low bias the cell works again.
        m.set_vsb(0.0);
        m.write(1, 0, true);
        assert!(m.read(1, 0));
    }

    #[test]
    fn address_alias_redirects_accesses() {
        let mut m = MemoryModel::new(4, 4);
        m.inject(Fault {
            row: 0,
            col: 0,
            kind: FaultKind::AddressAlias {
                to_row: 2,
                to_col: 2,
            },
        });
        m.write(0, 0, true);
        // The addressed cell was never written; the alias target was.
        assert!(m.read(2, 2));
        assert!(m.read(0, 0), "reads of (0,0) see the alias target");
        m.write(2, 2, false);
        assert!(!m.read(0, 0));
    }

    #[test]
    fn mats_plus_detects_address_faults() {
        use crate::march::MarchTest;
        let mut m = MemoryModel::new(4, 4);
        m.inject(Fault {
            row: 1,
            col: 1,
            kind: FaultKind::AddressAlias {
                to_row: 3,
                to_col: 3,
            },
        });
        let r = MarchTest::mats_plus().run(&mut m);
        assert!(!r.passed(), "MATS+ must catch decoder aliasing");
    }

    #[test]
    #[should_panic(expected = "alias must point elsewhere")]
    fn alias_to_self_rejected() {
        let mut m = MemoryModel::new(2, 2);
        m.inject(Fault {
            row: 0,
            col: 0,
            kind: FaultKind::AddressAlias {
                to_row: 0,
                to_col: 0,
            },
        });
    }

    #[test]
    #[should_panic(expected = "coupling must name another cell")]
    fn self_coupling_rejected() {
        let mut m = MemoryModel::new(2, 2);
        m.inject(Fault {
            row: 1,
            col: 0,
            kind: FaultKind::CouplingInv {
                agg_row: 1,
                agg_col: 0,
            },
        });
    }

    #[test]
    fn fault_count_accumulates() {
        let mut m = MemoryModel::new(4, 4);
        assert_eq!(m.fault_count(), 0);
        m.inject(Fault {
            row: 0,
            col: 0,
            kind: FaultKind::StuckAt(false),
        });
        m.inject(Fault {
            row: 0,
            col: 0,
            kind: FaultKind::TransitionUp,
        });
        m.inject(Fault {
            row: 0,
            col: 0,
            kind: FaultKind::Retention { min_vsb: 0.4 },
        });
        m.inject(Fault {
            row: 1,
            col: 0,
            kind: FaultKind::CouplingInv {
                agg_row: 0,
                agg_col: 0,
            },
        });
        assert_eq!(m.fault_count(), 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_bounds_fault() {
        let mut m = MemoryModel::new(2, 2);
        m.inject(Fault {
            row: 5,
            col: 0,
            kind: FaultKind::StuckAt(false),
        });
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_bounds_read() {
        let mut m = MemoryModel::new(2, 2);
        let _ = m.read(2, 0);
    }
}
