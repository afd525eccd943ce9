//! Hsiao odd-weight-column SEC-DED codes.
//!
//! A Hsiao code is a modified Hamming code whose parity-check matrix uses
//! only *odd-weight* columns.  That construction has two hardware-relevant
//! properties that made it the de-facto standard for cache/DRAM protection
//! (Chen & Hsiao, IBM JRD 1984 — reference \[10\] of the paper):
//!
//! * the XOR trees computing the check bits can be balanced (each check bit
//!   covers roughly the same number of data bits), minimising the encoder /
//!   syndrome-generator depth — which is why the paper can assume the SECDED
//!   check fits in a single extra cycle or pipeline stage, and
//! * double-error detection is a simple parity test on the syndrome: any
//!   two-column XOR has even weight, so *odd* syndrome weight ⇒ single error,
//!   *even* non-zero weight ⇒ (at least) double error.
//!
//! [`Hsiao`] builds a code for any geometry with enough odd-weight columns;
//! [`Hsiao39_32`] and [`Hsiao72_64`] are the canonical cache geometries.

use crate::code::{mask, CodeError, CodeKind, Decoded, EccCode, Outcome};

/// A Hsiao SEC-DED code over up to 64 data bits.
///
/// The column of check bit `j` is the unit vector `1 << j`; data columns are
/// distinct odd-weight vectors of weight ≥ 3, assigned in increasing weight
/// and, within a weight class, in increasing numeric order with a
/// round-robin balancing pass so the per-check-bit fan-in stays even.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hsiao {
    data_bits: u32,
    check_bits: u32,
    /// `columns[i]` is the parity-check column for data bit `i`.
    columns: Vec<u64>,
    /// For syndrome lookup: sorted `(column, data_bit)` pairs.
    by_column: Vec<(u64, u32)>,
    /// The encoder as one lookup table per data byte.  The code is linear,
    /// so the check bits of a word are the XOR of the columns of its set
    /// bits; `byte_checks[k][b]` is that XOR for byte value `b` in byte
    /// position `k`.  Encoding (and so every syndrome) is one lookup and one
    /// XOR per data byte — the hot path of every cache read, write and fill
    /// in the simulator.  Check bits fit a `u16` because `new` caps them
    /// at 16.
    byte_checks: Vec<[u16; 256]>,
}

impl Hsiao {
    /// Constructs a Hsiao code with the requested geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::UnconstructibleGeometry`] if there are not enough
    /// distinct odd-weight (≥ 3) columns of `check_bits` bits to cover
    /// `data_bits` data bits, if `data_bits` is 0 or > 64, or if
    /// `check_bits` > 16.
    pub fn new(data_bits: u32, check_bits: u32) -> Result<Self, CodeError> {
        let geometry_error = CodeError::UnconstructibleGeometry {
            data_bits,
            check_bits,
        };
        if data_bits == 0 || data_bits > 64 || check_bits == 0 || check_bits > 16 {
            return Err(geometry_error);
        }
        let columns = Self::assign_columns(data_bits, check_bits).ok_or(geometry_error)?;
        let mut by_column: Vec<(u64, u32)> = columns
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i as u32))
            .collect();
        by_column.sort_unstable();
        let byte_checks = columns
            .chunks(8)
            .map(|byte_columns| {
                let mut table = [0u16; 256];
                for (value, check) in table.iter_mut().enumerate() {
                    for (bit, &column) in byte_columns.iter().enumerate() {
                        if value & (1 << bit) != 0 {
                            // Columns are below `1 << check_bits` ≤ 2^16.
                            *check ^= column as u16;
                        }
                    }
                }
                table
            })
            .collect();
        Ok(Hsiao {
            data_bits,
            check_bits,
            columns,
            by_column,
            byte_checks,
        })
    }

    /// Enumerates odd-weight (≥ 3) columns grouped by weight and deals them
    /// out round-robin over the check bits so the XOR-tree fan-in per check
    /// bit stays as balanced as the geometry allows.
    fn assign_columns(data_bits: u32, check_bits: u32) -> Option<Vec<u64>> {
        let mut candidates: Vec<u64> = Vec::new();
        let mut weight = 3u32;
        while candidates.len() < data_bits as usize && weight <= check_bits {
            let mut this_weight: Vec<u64> = (0..(1u64 << check_bits))
                .filter(|c| c.count_ones() == weight)
                .collect();
            // Within a weight class, prefer columns that keep the per-row
            // (check-bit) load balanced: sort by rotating bit significance so
            // consecutive picks hit different rows first.
            this_weight.sort_unstable_by_key(|c| {
                let mut key = 0u64;
                for b in 0..check_bits {
                    if c & (1 << b) != 0 {
                        key = key * 64 + u64::from((b * 7) % check_bits);
                    }
                }
                key
            });
            candidates.extend(this_weight);
            weight += 2;
        }
        if candidates.len() < data_bits as usize {
            return None;
        }
        candidates.truncate(data_bits as usize);
        Some(candidates)
    }

    /// The parity-check column assigned to data bit `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= data_bits`.
    #[must_use]
    pub fn column(&self, bit: u32) -> u64 {
        self.columns[bit as usize]
    }

    /// Number of data bits feeding each check bit's XOR tree (fan-in).
    #[must_use]
    pub fn fan_in(&self) -> Vec<u32> {
        (0..self.check_bits)
            .map(|j| self.columns.iter().filter(|&&c| c & (1 << j) != 0).count() as u32)
            .collect()
    }

    fn syndrome(&self, data: u64, check: u64) -> u64 {
        (self.encode(data) ^ check) & mask(self.check_bits)
    }

    fn locate(&self, syndrome: u64) -> Option<u32> {
        self.by_column
            .binary_search_by_key(&syndrome, |&(c, _)| c)
            .ok()
            .map(|idx| self.by_column[idx].1)
    }
}

impl EccCode for Hsiao {
    fn data_bits(&self) -> u32 {
        self.data_bits
    }

    fn check_bits(&self) -> u32 {
        self.check_bits
    }

    fn encode(&self, data: u64) -> u64 {
        let data = data & self.data_mask();
        let check = self
            .byte_checks
            .iter()
            .zip(data.to_le_bytes())
            .fold(0u16, |check, (table, byte)| {
                check ^ table[usize::from(byte)]
            });
        u64::from(check)
    }

    fn decode(&self, data: u64, check: u64) -> Decoded {
        let data = data & self.data_mask();
        let check = check & self.check_mask();
        let syndrome = self.syndrome(data, check);
        if syndrome == 0 {
            return Decoded {
                data,
                outcome: Outcome::Clean,
            };
        }
        let weight = syndrome.count_ones();
        if weight.is_multiple_of(2) {
            // Any two odd-weight columns XOR to an even-weight vector: this is
            // the Hsiao double-error detection test.
            return Decoded {
                data,
                outcome: Outcome::DetectedDouble,
            };
        }
        if weight == 1 {
            let bit = syndrome.trailing_zeros();
            return Decoded {
                data,
                outcome: Outcome::CorrectedCheckBit { bit },
            };
        }
        if let Some(bit) = self.locate(syndrome) {
            return Decoded {
                data: data ^ (1u64 << bit),
                outcome: Outcome::CorrectedSingle { bit },
            };
        }
        // Odd-weight syndrome that matches no column: ≥ 3 bit flips.
        Decoded {
            data,
            outcome: Outcome::DetectedUncorrectable,
        }
    }

    fn kind(&self) -> CodeKind {
        match (self.data_bits, self.check_bits) {
            (32, 7) => CodeKind::Hsiao39_32,
            (64, 8) => CodeKind::Hsiao72_64,
            // Non-canonical geometries report the closest canonical family.
            _ => CodeKind::Hsiao39_32,
        }
    }
}

/// The (39,32) Hsiao SEC-DED code protecting one 32-bit word with 7 check
/// bits — the DL1/L2 geometry assumed throughout the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hsiao39_32 {
    inner: Hsiao,
}

impl Hsiao39_32 {
    /// Builds the canonical (39,32) code.
    #[must_use]
    pub fn new() -> Self {
        Hsiao39_32 {
            // laec-lint: allow(panic-in-library) -- (39,32) is a fixed,
            // always-constructible geometry (7 check bits cover 32 data
            // bits); construction is covered by tier-1 tests.
            inner: Hsiao::new(32, 7).expect("(39,32) Hsiao geometry is always constructible"),
        }
    }

    /// Access to the generic code (e.g. for inspecting columns / fan-in).
    #[must_use]
    pub fn as_hsiao(&self) -> &Hsiao {
        &self.inner
    }
}

impl Default for Hsiao39_32 {
    fn default() -> Self {
        Self::new()
    }
}

impl EccCode for Hsiao39_32 {
    fn data_bits(&self) -> u32 {
        self.inner.data_bits()
    }

    fn check_bits(&self) -> u32 {
        self.inner.check_bits()
    }

    fn encode(&self, data: u64) -> u64 {
        self.inner.encode(data)
    }

    fn decode(&self, data: u64, check: u64) -> Decoded {
        self.inner.decode(data, check)
    }

    fn kind(&self) -> CodeKind {
        CodeKind::Hsiao39_32
    }
}

/// The (72,64) Hsiao SEC-DED code protecting a 64-bit word with 8 check bits,
/// the usual geometry for wider L2/memory interfaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hsiao72_64 {
    inner: Hsiao,
}

impl Hsiao72_64 {
    /// Builds the canonical (72,64) code.
    #[must_use]
    pub fn new() -> Self {
        Hsiao72_64 {
            // laec-lint: allow(panic-in-library) -- (72,64) is a fixed,
            // always-constructible geometry (8 check bits cover 64 data
            // bits); construction is covered by tier-1 tests.
            inner: Hsiao::new(64, 8).expect("(72,64) Hsiao geometry is always constructible"),
        }
    }

    /// Access to the generic code (e.g. for inspecting columns / fan-in).
    #[must_use]
    pub fn as_hsiao(&self) -> &Hsiao {
        &self.inner
    }
}

impl Default for Hsiao72_64 {
    fn default() -> Self {
        Self::new()
    }
}

impl EccCode for Hsiao72_64 {
    fn data_bits(&self) -> u32 {
        self.inner.data_bits()
    }

    fn check_bits(&self) -> u32 {
        self.inner.check_bits()
    }

    fn encode(&self, data: u64) -> u64 {
        self.inner.encode(data)
    }

    fn decode(&self, data: u64, check: u64) -> Decoded {
        self.inner.decode(data, check)
    }

    fn kind(&self) -> CodeKind {
        CodeKind::Hsiao72_64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_words() -> Vec<u64> {
        vec![
            0,
            1,
            u64::MAX,
            0xFFFF_FFFF,
            0xDEAD_BEEF,
            0x8000_0000,
            0x0000_0001,
            0xA5A5_A5A5_5A5A_5A5A,
            0x1234_5678_9ABC_DEF0,
        ]
    }

    /// The row-mask encoder the byte tables replaced, kept only as a test
    /// oracle: `row_masks[j]` selects the data bits whose columns include
    /// check bit `j`, and check bit `j` is the parity of `data & row_masks[j]`.
    /// It reads the code only through [`Hsiao::column`], so it shares nothing
    /// with the tables.
    fn row_masks(code: &Hsiao) -> Vec<u64> {
        (0..code.check_bits())
            .map(|j| {
                (0..code.data_bits())
                    .filter(|&i| code.column(i) & (1 << j) != 0)
                    .fold(0u64, |row, i| row | (1u64 << i))
            })
            .collect()
    }

    fn row_mask_encode(row_masks: &[u64], data: u64) -> u64 {
        row_masks.iter().enumerate().fold(0u64, |check, (j, &row)| {
            check | (u64::from((data & row).count_ones() & 1) << j)
        })
    }

    #[test]
    fn table_encoder_matches_the_row_mask_oracle() {
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};

        for (data_bits, check_bits) in [(32u32, 7u32), (64, 8)] {
            let code = Hsiao::new(data_bits, check_bits).unwrap();
            let rows = row_masks(&code);
            let data_mask = code.data_mask();
            let mut words: Vec<u64> = Vec::new();
            for a in 0..data_bits {
                words.push(1 << a);
                words.extend((a + 1..data_bits).map(|b| (1u64 << a) | (1u64 << b)));
            }
            let mut rng = StdRng::seed_from_u64(0x0EC0_DE00 + u64::from(data_bits));
            words.extend((0..100_000).map(|_| rng.next_u64() & data_mask));
            for &word in &words {
                let check = code.encode(word);
                assert_eq!(
                    check,
                    row_mask_encode(&rows, word),
                    "({}, {data_bits}) word {word:#x}",
                    data_bits + check_bits
                );
                for bit in 0..data_bits {
                    let decoded = code.decode(word ^ (1 << bit), check);
                    assert_eq!(decoded.outcome, Outcome::CorrectedSingle { bit });
                    assert_eq!(decoded.data, word);
                }
                for bit in 0..check_bits {
                    let decoded = code.decode(word, check ^ (1 << bit));
                    assert_eq!(decoded.outcome, Outcome::CorrectedCheckBit { bit });
                    assert_eq!(decoded.data, word);
                }
            }
        }
    }

    #[test]
    fn columns_are_distinct_and_odd_weight() {
        for (d, c) in [(32u32, 7u32), (64, 8), (16, 6), (8, 5)] {
            let code = Hsiao::new(d, c).unwrap();
            let mut seen = std::collections::HashSet::new();
            for bit in 0..d {
                let col = code.column(bit);
                assert!(col.count_ones() % 2 == 1, "column {col:#b} not odd weight");
                assert!(
                    col.count_ones() >= 3,
                    "column {col:#b} collides with check unit vector"
                );
                assert!(seen.insert(col), "duplicate column {col:#b}");
                assert!(col < (1 << c));
            }
        }
    }

    #[test]
    fn fan_in_is_balanced_for_39_32() {
        let code = Hsiao39_32::new();
        let fan_in = code.as_hsiao().fan_in();
        assert_eq!(fan_in.len(), 7);
        let total: u32 = fan_in.iter().sum();
        assert_eq!(total, 32 * 3); // all columns have weight 3
        let min = *fan_in.iter().min().unwrap();
        let max = *fan_in.iter().max().unwrap();
        // A balanced Hsiao (39,32) assignment keeps fan-in within a small band
        // (ideal is 96/7 ≈ 13.7); allow a modest spread.
        assert!(max - min <= 4, "fan-in spread too large: {fan_in:?}");
    }

    #[test]
    fn unconstructible_geometries_are_rejected() {
        assert!(Hsiao::new(0, 7).is_err());
        assert!(Hsiao::new(65, 8).is_err());
        assert!(Hsiao::new(32, 0).is_err());
        assert!(Hsiao::new(32, 17).is_err());
        // 4 check bits give C(4,3)=4 columns: not enough for 32 data bits.
        assert!(Hsiao::new(32, 4).is_err());
        // … but enough for 4 data bits.
        assert!(Hsiao::new(4, 4).is_ok());
    }

    #[test]
    fn clean_roundtrip() {
        let code = Hsiao39_32::new();
        for word in sample_words() {
            let check = code.encode(word);
            let decoded = code.decode(word, check);
            assert_eq!(decoded.outcome, Outcome::Clean);
            assert_eq!(decoded.data, word & 0xFFFF_FFFF);
        }
    }

    #[test]
    fn every_single_data_bit_error_is_corrected_39_32() {
        let code = Hsiao39_32::new();
        for word in sample_words() {
            let word = word & 0xFFFF_FFFF;
            let check = code.encode(word);
            for bit in 0..32 {
                let decoded = code.decode(word ^ (1 << bit), check);
                assert_eq!(decoded.outcome, Outcome::CorrectedSingle { bit });
                assert_eq!(decoded.data, word, "bit {bit} word {word:#x}");
            }
        }
    }

    #[test]
    fn every_single_check_bit_error_is_flagged_39_32() {
        let code = Hsiao39_32::new();
        let word = 0x0BAD_F00Du64;
        let check = code.encode(word);
        for bit in 0..7 {
            let decoded = code.decode(word, check ^ (1 << bit));
            assert_eq!(decoded.outcome, Outcome::CorrectedCheckBit { bit });
            assert_eq!(decoded.data, word);
        }
    }

    #[test]
    fn every_double_data_bit_error_is_detected_39_32() {
        let code = Hsiao39_32::new();
        let word = 0x1357_9BDFu64;
        let check = code.encode(word);
        for a in 0..32 {
            for b in (a + 1)..32 {
                let decoded = code.decode(word ^ (1 << a) ^ (1 << b), check);
                assert_eq!(
                    decoded.outcome,
                    Outcome::DetectedDouble,
                    "bits {a},{b} escaped detection"
                );
            }
        }
    }

    #[test]
    fn mixed_data_check_double_errors_are_not_miscorrected_silently() {
        // One data flip + one check flip: SEC-DED guarantees *detection* of any
        // double error; the outcome must never be Clean.
        let code = Hsiao39_32::new();
        let word = 0xFEED_FACEu64;
        let check = code.encode(word);
        for d in 0..32 {
            for c in 0..7 {
                let decoded = code.decode(word ^ (1 << d), check ^ (1 << c));
                assert_ne!(decoded.outcome, Outcome::Clean, "data {d} / check {c}");
            }
        }
    }

    #[test]
    fn hsiao_72_64_corrects_singles_and_detects_doubles() {
        let code = Hsiao72_64::new();
        let word = 0x0123_4567_89AB_CDEFu64;
        let check = code.encode(word);
        for bit in 0..64 {
            let decoded = code.decode(word ^ (1 << bit), check);
            assert_eq!(decoded.outcome, Outcome::CorrectedSingle { bit });
            assert_eq!(decoded.data, word);
        }
        for a in (0..64).step_by(7) {
            for b in (a + 1..64).step_by(5) {
                let decoded = code.decode(word ^ (1 << a) ^ (1 << b), check);
                assert_eq!(decoded.outcome, Outcome::DetectedDouble);
            }
        }
        assert_eq!(code.kind(), CodeKind::Hsiao72_64);
    }

    #[test]
    fn triple_error_is_not_reported_clean() {
        let code = Hsiao39_32::new();
        let word = 0x0F1E_2D3Cu64;
        let check = code.encode(word);
        // Triple errors are beyond SEC-DED guarantees (they may alias to a
        // miscorrection) but must never decode to Clean with the same data.
        for (a, b, c) in [(0u32, 1u32, 2u32), (3, 11, 29), (5, 17, 31), (2, 13, 23)] {
            let corrupted = word ^ (1 << a) ^ (1 << b) ^ (1 << c);
            let decoded = code.decode(corrupted, check);
            if decoded.outcome == Outcome::Clean {
                panic!("triple error ({a},{b},{c}) reported clean");
            }
        }
    }

    #[test]
    fn default_constructors() {
        assert_eq!(Hsiao39_32::default(), Hsiao39_32::new());
        assert_eq!(Hsiao72_64::default(), Hsiao72_64::new());
    }
}
