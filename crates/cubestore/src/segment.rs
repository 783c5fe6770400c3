//! Columnar cuboid segments — the store's unit of persistence.
//!
//! One segment holds one cuboid, mirroring the paper's one-file-per-cuboid
//! output layout (Section 3.1). Inside, the cuboid is stored *columnar*:
//! every grouped dimension becomes a dictionary-encoded column (a sorted
//! dictionary of distinct values plus one `u32` code per row), and the
//! aggregate outputs form a final values column. Rows are sorted by group
//! key, so point lookups and range reasoning work on codes alone.
//!
//! On top of the columns the segment carries per-block metadata, computed
//! at build time and persisted with the data:
//!
//! * a **sparse first-key index** — blocks have a fixed row stride, so the
//!   first key of each block (derivable from its start row) splits the
//!   sorted row space; a point probe binary-searches the block firsts and
//!   scans at most one block;
//! * **zone maps** — per block, the min/max code of every column; a slice
//!   on `dim = value` skips every block whose code range excludes the
//!   value.
//!
//! # Wire format (`CSEG1`)
//!
//! ```text
//! "CSEG1" | u32 d | u32 mask | u32 rows | u32 block_size
//! per column (ascending dimension order):
//!     u32 dict_len | dict values (sorted, tagged) | rows × u32 codes
//! rows × tagged aggregate outputs
//! u32 n_blocks | per block, per column: u32 min_code | u32 max_code
//! u64 FNV-1a checksum of everything above
//! ```
//!
//! [`Segment::decode`] verifies the checksum first and then the structural
//! invariants (sorted dictionaries, in-range codes, sorted rows), so a
//! corrupt or hand-forged blob is rejected rather than served.

use std::borrow::Borrow;
use std::cmp::Ordering;

use spcube_agg::AggOutput;
use spcube_common::{Error, Group, Mask, Result, Value};

use crate::codec::{
    checked_body, put_agg_output, put_len, put_u32, put_value, seal, AggRead, Reader,
};

/// Magic prefix of a serialized segment (format version 1).
pub const SEGMENT_MAGIC: &[u8; 5] = b"CSEG1";

/// Default rows per block for the sparse index / zone maps.
pub const DEFAULT_BLOCK_SIZE: usize = 64;

/// One dictionary-encoded dimension column.
#[derive(Debug, Clone)]
struct Column {
    /// Distinct values, sorted ascending; codes index into this.
    dict: Vec<Value>,
    /// One code per row.
    codes: Vec<u32>,
}

impl Column {
    /// The dictionary code of `v`, if present.
    fn code_of(&self, v: &Value) -> Option<u32> {
        self.dict
            .binary_search(v)
            .ok()
            .and_then(|i| u32::try_from(i).ok())
    }
}

/// Per-block metadata: the zone map (min/max code per column). The block's
/// first row — the sparse-index key — is `block_index * block_size`.
#[derive(Debug, Clone)]
struct BlockMeta {
    /// `(min_code, max_code)` per column, in column order.
    ranges: Vec<(u32, u32)>,
}

/// A decoded, query-ready cuboid segment.
#[derive(Debug, Clone)]
pub struct Segment {
    d: usize,
    mask: Mask,
    block_size: usize,
    columns: Vec<Column>,
    values: Vec<AggOutput>,
    blocks: Vec<BlockMeta>,
}

/// One cuboid's rows gathered column by column: the input of the segment
/// builder. Row `i` is `keys[slot][i]` on every grouped dimension plus
/// `values[i]`; rows may arrive in any order. `V` is an owned
/// [`AggOutput`] inside [`Segment::build`], or a borrowed one when the
/// rows are only encoded ([`CuboidColumns::encode`]).
#[derive(Debug)]
pub struct CuboidColumns<V> {
    mask: Mask,
    keys: Vec<Vec<Value>>,
    values: Vec<V>,
}

impl<V: Borrow<AggOutput>> CuboidColumns<V> {
    /// No rows yet, with room for `rows` of them.
    pub fn with_capacity(mask: Mask, rows: usize) -> Self {
        CuboidColumns {
            mask,
            keys: (0..mask.arity())
                .map(|_| Vec::with_capacity(rows))
                .collect(),
            values: Vec::with_capacity(rows),
        }
    }

    /// Append one row. Panics when the key does not have the cuboid's
    /// arity (a programming error, like [`Group::new`]).
    pub fn push(&mut self, key: impl ExactSizeIterator<Item = Value>, value: V) {
        assert_eq!(
            key.len(),
            self.keys.len(),
            "segment row arity mismatch for cuboid {}",
            self.mask
        );
        for (col, v) in self.keys.iter_mut().zip(key) {
            col.push(v);
        }
        self.values.push(value);
    }

    /// Number of rows gathered.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no row has been gathered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Encode straight to `CSEG1` bytes without owning the values: the
    /// same bytes as building the [`Segment`] and encoding it.
    pub fn encode(self, d: usize) -> Result<Vec<u8>> {
        let sorted = SortedKeys::new(self.keys, self.values.len());
        let values = sorted
            .order
            .iter()
            .map(|&r| self.values[r as usize].borrow());
        encode_parts(
            d,
            self.mask,
            DEFAULT_BLOCK_SIZE,
            &sorted.columns,
            values,
            &sorted.blocks,
        )
    }
}

/// The dictionary-encoded key columns of one cuboid in sorted row order,
/// their zone maps, and the input row each sorted row came from.
struct SortedKeys {
    columns: Vec<Column>,
    blocks: Vec<BlockMeta>,
    /// `order[i]` is the input row that sorts to position `i`.
    order: Vec<u32>,
}

impl SortedKeys {
    /// Each column's sorted distinct values become its dictionary, and a
    /// binary search gives every row its code. Rows are then ordered by
    /// sorting a `u32` permutation on their code tuples, ties kept in
    /// input order. Codes order exactly as the values do, so this is the
    /// key order without comparing boxed keys.
    fn new(keys: Vec<Vec<Value>>, rows: usize) -> SortedKeys {
        let arity = keys.len();
        // Row-major code tuples: row `r` owns `tuples[r * arity..][..arity]`.
        let mut tuples = vec![0u32; rows * arity];
        let mut dicts = Vec::with_capacity(arity);
        for (slot, col) in keys.into_iter().enumerate() {
            let mut dict = col.clone();
            dict.sort_unstable();
            dict.dedup();
            for (r, v) in col.iter().enumerate() {
                // spcheck:allow(error_hygiene): encode-side cast; dict len <= row count, which put_len caps at u32::MAX at write time
                tuples[r * arity + slot] = dict.binary_search(v).expect("value in dict") as u32;
            }
            dicts.push(dict);
        }
        let tuple = |r: usize| &tuples[r * arity..][..arity];
        // A code below `dict.len()` fits in the bits of that length. When
        // a row's codes pack into one `u64`, as they do unless the cuboid
        // is both wide and high-cardinality, the sort moves flat
        // `(key, row)` pairs; otherwise it compares the tuples in place.
        let widths: Vec<u32> = dicts
            .iter()
            .map(|d| usize::BITS - d.len().leading_zeros())
            .collect();
        let order: Vec<u32> = if widths.iter().sum::<u32>() <= u64::BITS {
            let mut keyed: Vec<(u64, u32)> = (0..rows)
                .map(|r| {
                    let key = (tuple(r).iter().zip(&widths))
                        .fold(0, |key, (&code, &w)| key << w | u64::from(code));
                    // spcheck:allow(error_hygiene): encode-side cast; put_len caps the row count at u32::MAX at write time
                    (key, r as u32)
                })
                .collect();
            keyed.sort_unstable();
            keyed.into_iter().map(|(_, r)| r).collect()
        } else {
            // spcheck:allow(error_hygiene): encode-side cast; put_len caps the row count at u32::MAX at write time
            let mut order: Vec<u32> = (0..rows as u32).collect();
            order.sort_unstable_by(|&a, &b| {
                tuple(a as usize).cmp(tuple(b as usize)).then(a.cmp(&b))
            });
            order
        };
        let columns = dicts
            .into_iter()
            .enumerate()
            .map(|(slot, dict)| Column {
                dict,
                codes: order
                    .iter()
                    .map(|&r| tuples[r as usize * arity + slot])
                    .collect(),
            })
            .collect::<Vec<_>>();
        let blocks = build_blocks(&columns, rows, DEFAULT_BLOCK_SIZE);
        SortedKeys {
            columns,
            blocks,
            order,
        }
    }
}

impl Segment {
    /// Build a segment from the rows of one cuboid. Keys must all have the
    /// cuboid's arity; rows are sorted by key here, so callers can pass
    /// them in any order. Panics on an arity mismatch (a programming
    /// error, like [`Group::new`]).
    pub fn build(d: usize, mask: Mask, rows: Vec<(Box<[Value]>, AggOutput)>) -> Segment {
        let mut gathered = CuboidColumns::with_capacity(mask, rows.len());
        for (key, value) in rows {
            gathered.push(key.into_vec().into_iter(), value);
        }
        let sorted = SortedKeys::new(gathered.keys, gathered.values.len());
        // Move each output to its sorted position; the placeholder left
        // behind is dropped unread.
        let mut unsorted = gathered.values;
        let values = sorted
            .order
            .iter()
            .map(|&r| std::mem::replace(&mut unsorted[r as usize], AggOutput::Number(0.0)))
            .collect();
        Segment {
            d,
            mask,
            block_size: DEFAULT_BLOCK_SIZE,
            columns: sorted.columns,
            values,
            blocks: sorted.blocks,
        }
    }

    /// Total dimensions of the cube this segment belongs to.
    pub fn dims(&self) -> usize {
        self.d
    }

    /// The cuboid this segment holds.
    pub fn mask(&self) -> Mask {
        self.mask
    }

    /// Number of rows (groups).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the cuboid is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Approximate decoded footprint in bytes, used for cache accounting.
    pub fn heap_bytes(&self) -> u64 {
        let dict: u64 = self
            .columns
            .iter()
            .flat_map(|c| c.dict.iter())
            .map(Value::wire_bytes)
            .sum();
        let codes: u64 = self.columns.iter().map(|c| 4 * c.codes.len() as u64).sum();
        let values = 16 * self.values.len() as u64;
        dict + codes + values
    }

    /// Materialize the key of row `i`.
    pub fn key(&self, i: usize) -> Vec<Value> {
        self.columns
            .iter()
            .map(|c| c.dict[c.codes[i] as usize].clone())
            .collect()
    }

    /// Materialize row `i` as a [`Group`].
    pub fn group(&self, i: usize) -> Group {
        Group::new(self.mask, self.key(i))
    }

    /// The aggregate of row `i`.
    pub fn value(&self, i: usize) -> &AggOutput {
        &self.values[i]
    }

    /// Iterate over all rows in key order.
    pub fn iter(&self) -> impl Iterator<Item = (Group, &AggOutput)> + '_ {
        (0..self.len()).map(|i| (self.group(i), &self.values[i]))
    }

    /// Compare row `i` against needle codes, column by column.
    fn cmp_row(&self, i: usize, needle: &[u32]) -> Ordering {
        for (col, &code) in self.columns.iter().zip(needle) {
            match col.codes[i].cmp(&code) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    }

    /// Translate a key into per-column codes; `None` when any value is
    /// absent from its dictionary (the key cannot be in the segment).
    fn codes_of(&self, key: &[Value]) -> Option<Vec<u32>> {
        if key.len() != self.columns.len() {
            return None;
        }
        self.columns
            .iter()
            .zip(key)
            .map(|(c, v)| c.code_of(v))
            .collect()
    }

    /// Point lookup via the sparse first-key index: binary-search the block
    /// firsts for the last block whose first key is `<=` the needle, then
    /// scan only that block.
    pub fn point(&self, key: &[Value]) -> Option<&AggOutput> {
        let needle = self.codes_of(key)?;
        // Binary search over block indices: `lo` ends one past the last
        // block whose first key is <= the needle.
        let (mut lo, mut hi) = (0, self.blocks.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.cmp_row(mid * self.block_size, &needle) == Ordering::Greater {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let block = lo.checked_sub(1)?;
        let start = block * self.block_size;
        let end = (start + self.block_size).min(self.len());
        (start..end)
            .find(|&i| self.cmp_row(i, &needle) == Ordering::Equal)
            .map(|i| &self.values[i])
    }

    /// Row indices whose value on column `slot` equals `value`, pruned by
    /// the per-block zone maps.
    pub fn slice_rows(&self, slot: usize, value: &Value) -> Vec<usize> {
        let Some(code) = self.columns.get(slot).and_then(|c| c.code_of(value)) else {
            return Vec::new();
        };
        let mut rows = Vec::new();
        for (b, meta) in self.blocks.iter().enumerate() {
            let (lo, hi) = meta.ranges[slot];
            if code < lo || code > hi {
                continue; // zone map excludes this block
            }
            let start = b * self.block_size;
            let end = (start + self.block_size).min(self.len());
            for i in start..end {
                if self.columns[slot].codes[i] == code {
                    rows.push(i);
                }
            }
        }
        rows
    }

    /// Serialize (see the module-level wire format). Fails only when a
    /// collection exceeds the format's 32-bit length fields.
    pub fn encode(&self) -> Result<Vec<u8>> {
        encode_parts(
            self.d,
            self.mask,
            self.block_size,
            &self.columns,
            self.values.iter(),
            &self.blocks,
        )
    }

    /// Deserialize, verifying the checksum before any field is trusted and
    /// then the structural invariants a correct builder guarantees.
    pub fn decode(bytes: &[u8]) -> Result<Segment> {
        let body = checked_body(bytes, "segment")?;
        let mut r = Reader::labeled(body, "segment");
        if r.take(SEGMENT_MAGIC.len())? != SEGMENT_MAGIC {
            return Err(r.corrupt("bad segment magic"));
        }
        let d = r.u32()? as usize;
        if d > Mask::MAX_DIMS {
            return Err(r.corrupt(format!(
                "declares {d} dimensions, max is {}",
                Mask::MAX_DIMS
            )));
        }
        let mask = Mask(r.u32()?);
        if !mask.is_subset_of(Mask::full(d)) {
            return Err(r.corrupt(format!("cuboid {mask} has bits beyond d={d}")));
        }
        let rows = r.u32()? as usize;
        let block_size = r.u32()? as usize;
        if block_size == 0 {
            return Err(r.corrupt("block size must be positive"));
        }
        let arity = mask.arity() as usize;
        let mut columns = Vec::with_capacity(arity);
        for slot in 0..arity {
            let dict_len = r.u32()? as usize;
            // A value is at least 5 wire bytes (tag + shortest payload);
            // reject a forged dictionary length before allocating for it.
            r.check_count(dict_len, 5, "dictionary values")?;
            let mut dict = Vec::with_capacity(dict_len);
            for _ in 0..dict_len {
                dict.push(r.value()?);
            }
            if dict.windows(2).any(|w| w[0] >= w[1]) {
                return Err(r.corrupt(format!(
                    "cuboid {mask}: column {slot} dictionary not sorted/distinct"
                )));
            }
            r.check_count(rows, 4, "row codes")?;
            let mut codes = Vec::with_capacity(rows);
            for _ in 0..rows {
                let code = r.u32()?;
                if code as usize >= dict_len {
                    return Err(r.corrupt(format!(
                        "cuboid {mask}: column {slot} code {code} beyond dictionary"
                    )));
                }
                codes.push(code);
            }
            columns.push(Column { dict, codes });
        }
        // An aggregate output is at least 5 wire bytes (tag + u32).
        r.check_count(rows, 5, "aggregate values")?;
        let mut values = Vec::with_capacity(rows);
        for _ in 0..rows {
            values.push(r.agg_output()?);
        }
        let n_blocks = r.u32()? as usize;
        if n_blocks != rows.div_ceil(block_size) {
            return Err(r.corrupt(format!(
                "cuboid {mask}: {n_blocks} blocks for {rows} rows at stride {block_size}"
            )));
        }
        let mut blocks = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            let mut ranges = Vec::with_capacity(arity);
            for _ in 0..arity {
                let lo = r.u32()?;
                let hi = r.u32()?;
                ranges.push((lo, hi));
            }
            blocks.push(BlockMeta { ranges });
        }
        if !r.is_exhausted() {
            return Err(r.corrupt("trailing bytes after segment"));
        }
        let seg = Segment {
            d,
            mask,
            block_size,
            columns,
            values,
            blocks,
        };
        // Rows must be sorted strictly ascending (groups are unique).
        for i in 1..seg.len() {
            let prev: Vec<u32> = seg.columns.iter().map(|c| c.codes[i - 1]).collect();
            if seg.cmp_row(i, &prev) != Ordering::Greater {
                return Err(Error::corrupt(
                    "segment",
                    format!("cuboid {mask}: rows not sorted at {i}"),
                ));
            }
        }
        Ok(seg)
    }
}

/// Write the `CSEG1` bytes of a segment's parts; `values` yields the
/// aggregate outputs in sorted row order.
fn encode_parts<'a>(
    d: usize,
    mask: Mask,
    block_size: usize,
    columns: &[Column],
    values: impl ExactSizeIterator<Item = &'a AggOutput>,
    blocks: &[BlockMeta],
) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    out.extend_from_slice(SEGMENT_MAGIC);
    put_len(&mut out, d)?;
    put_u32(&mut out, mask.0);
    put_len(&mut out, values.len())?;
    put_len(&mut out, block_size)?;
    for col in columns {
        put_len(&mut out, col.dict.len())?;
        for v in &col.dict {
            put_value(&mut out, v)?;
        }
        for &code in &col.codes {
            put_u32(&mut out, code);
        }
    }
    for v in values {
        put_agg_output(&mut out, v)?;
    }
    put_len(&mut out, blocks.len())?;
    for meta in blocks {
        for &(lo, hi) in &meta.ranges {
            put_u32(&mut out, lo);
            put_u32(&mut out, hi);
        }
    }
    seal(&mut out);
    Ok(out)
}

/// Compute the per-block zone maps for `columns` over `rows` rows.
fn build_blocks(columns: &[Column], rows: usize, block_size: usize) -> Vec<BlockMeta> {
    let n_blocks = rows.div_ceil(block_size);
    (0..n_blocks)
        .map(|b| {
            let start = b * block_size;
            let end = (start + block_size).min(rows);
            let ranges = columns
                .iter()
                .map(|c| {
                    let slice = &c.codes[start..end];
                    let lo = *slice.iter().min().expect("non-empty block");
                    let hi = *slice.iter().max().expect("non-empty block");
                    (lo, hi)
                })
                .collect();
            BlockMeta { ranges }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(vals: &[i64]) -> Box<[Value]> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    fn sample_segment(rows: usize) -> Segment {
        let data: Vec<(Box<[Value]>, AggOutput)> = (0..rows)
            .map(|i| {
                (
                    k(&[(i / 7) as i64, (i % 7) as i64]),
                    AggOutput::Number(i as f64),
                )
            })
            .collect();
        Segment::build(3, Mask(0b011), data)
    }

    /// Build `rows` both ways (owned into a [`Segment`], borrowed straight
    /// to bytes), then check the decoded copy and the original against a
    /// full scan: rows strictly sorted, every `point` probe over the
    /// dictionaries' cross product, and every `slice_rows`.
    fn check_build(d: usize, mask: Mask, rows: Vec<(Box<[Value]>, AggOutput)>) -> Segment {
        let mut borrowed = CuboidColumns::with_capacity(mask, rows.len());
        for (key, value) in &rows {
            borrowed.push(key.iter().cloned(), value);
        }
        let borrowed = borrowed.encode(d).expect("encode borrowed");
        let seg = Segment::build(d, mask, rows);
        let bytes = seg.encode().expect("encode");
        assert_eq!(borrowed, bytes, "borrowed and owned builds differ");
        let back = Segment::decode(&bytes).expect("decode");
        assert_eq!(back.encode().expect("re-encode"), bytes);
        for s in [&seg, &back] {
            let scan: Vec<(Vec<Value>, &AggOutput)> =
                (0..s.len()).map(|i| (s.key(i), s.value(i))).collect();
            assert!(scan.windows(2).all(|w| w[0].0 < w[1].0), "rows not sorted");
            let mut probes = vec![Vec::new()];
            for col in &s.columns {
                probes = probes
                    .into_iter()
                    .flat_map(|p| {
                        col.dict.iter().map(move |v| {
                            let mut p = p.clone();
                            p.push(v.clone());
                            p
                        })
                    })
                    .collect();
            }
            for probe in &probes {
                let want = scan.iter().find(|(k, _)| k == probe).map(|&(_, v)| v);
                assert_eq!(s.point(probe), want, "point {probe:?}");
            }
            for (slot, col) in s.columns.iter().enumerate() {
                let absent = [Value::Int(i64::MIN), Value::str("absent")];
                for v in col.dict.iter().chain(&absent) {
                    let want: Vec<usize> =
                        (0..scan.len()).filter(|&i| &scan[i].0[slot] == v).collect();
                    assert_eq!(s.slice_rows(slot, v), want, "slice {slot} = {v}");
                }
            }
        }
        seg
    }

    #[test]
    fn builder_sorts_integers_before_strings_in_a_mixed_column() {
        let rows = vec![
            (
                vec![Value::str("b"), Value::Int(1)].into(),
                AggOutput::Number(1.0),
            ),
            (
                vec![Value::Int(5), Value::Int(1)].into(),
                AggOutput::Number(2.0),
            ),
            (
                vec![Value::str("a"), Value::Int(0)].into(),
                AggOutput::Number(3.0),
            ),
            (
                vec![Value::Int(-3), Value::Int(2)].into(),
                AggOutput::Number(4.0),
            ),
            (
                vec![Value::Int(5), Value::Int(0)].into(),
                AggOutput::Number(5.0),
            ),
        ];
        // The cross-product probes include keys below the first row
        // (-3, 0) and above the last ("b", 2), all values in dictionary.
        let seg = check_build(2, Mask(0b11), rows);
        let firsts: Vec<Value> = (0..seg.len()).map(|i| seg.key(i)[0].clone()).collect();
        assert_eq!(
            firsts,
            vec![
                Value::Int(-3),
                Value::Int(5),
                Value::Int(5),
                Value::str("a"),
                Value::str("b"),
            ]
        );
        assert_eq!(seg.value(1), &AggOutput::Number(5.0));
    }

    #[test]
    fn builder_handles_duplicate_heavy_columns_across_blocks() {
        // 400 unique keys over columns of 2, 3 and 67 distinct values,
        // gathered in a scrambled order; 7 blocks at stride 64.
        let rows: Vec<(Box<[Value]>, AggOutput)> = (0..400i64)
            .map(|j| {
                let i = j * 7919 % 400;
                let key = vec![
                    Value::Int(i % 2),
                    Value::str(["x", "y", "z"][(i / 2 % 3) as usize]),
                    Value::Int(i / 6),
                ];
                (key.into(), AggOutput::Number(i as f64))
            })
            .collect();
        let seg = check_build(4, Mask(0b1011), rows);
        assert_eq!(seg.len(), 400);
        assert_eq!(seg.blocks.len(), 7);
        let dict_lens: Vec<usize> = seg.columns.iter().map(|c| c.dict.len()).collect();
        assert_eq!(dict_lens, vec![2, 3, 67]);
    }

    #[test]
    fn builder_handles_empty_apex_and_single_row_cuboids() {
        let empty = check_build(3, Mask(0b101), Vec::new());
        assert!(empty.is_empty());
        assert!(empty.blocks.is_empty());
        let apex = check_build(3, Mask::EMPTY, vec![(Box::new([]), AggOutput::Number(9.0))]);
        assert_eq!(apex.len(), 1);
        assert_eq!(apex.point(&[]), Some(&AggOutput::Number(9.0)));
        let single = check_build(
            3,
            Mask(0b110),
            vec![(k(&[4, 2]), AggOutput::TopK(vec![(1.0, 2)]))],
        );
        assert_eq!(single.len(), 1);
        assert_eq!(single.blocks.len(), 1);
        assert_eq!(
            single.point(&[Value::Int(4), Value::Int(2)]),
            Some(single.value(0))
        );
    }

    #[test]
    fn builder_sorts_wide_cuboids_whose_codes_overflow_a_u64() {
        // 24 columns: 23 of 4 distinct values (3 bits each) and a last one
        // of 200 (8 bits), 77 bits in all, so rows sort tuple by tuple.
        let rows: Vec<(Box<[Value]>, AggOutput)> = (0..200u64)
            .map(|i| {
                let mut key: Vec<Value> = (0..23u64)
                    .map(|c| Value::Int(((i * 2_654_435_761 + c * 40_503) >> 7) as i64 % 4))
                    .collect();
                key.push(Value::Int(i as i64));
                (key.into(), AggOutput::Number(i as f64))
            })
            .collect();
        let mut reversed = rows.clone();
        reversed.reverse();
        let seg = Segment::build(24, Mask::full(24), rows.clone());
        assert!((1..seg.len()).all(|i| seg.key(i - 1) < seg.key(i)));
        let bytes = seg.encode().expect("encode");
        assert_eq!(
            Segment::build(24, Mask::full(24), reversed)
                .encode()
                .expect("encode"),
            bytes
        );
        let back = Segment::decode(&bytes).expect("decode");
        for (key, value) in &rows {
            assert_eq!(back.point(key), Some(value));
        }
    }

    #[test]
    fn build_sorts_rows_and_round_trips() {
        let rows = vec![
            (k(&[2, 1]), AggOutput::Number(3.0)),
            (k(&[1, 5]), AggOutput::Number(1.0)),
            (k(&[1, 2]), AggOutput::Number(2.0)),
        ];
        let seg = Segment::build(3, Mask(0b011), rows);
        assert_eq!(seg.len(), 3);
        assert_eq!(seg.key(0), vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(seg.key(2), vec![Value::Int(2), Value::Int(1)]);
        let bytes = seg.encode().expect("encode");
        assert_eq!(&bytes[..5], SEGMENT_MAGIC);
        let back = Segment::decode(&bytes).expect("decode");
        assert_eq!(back.len(), 3);
        for i in 0..3 {
            assert_eq!(back.key(i), seg.key(i));
            assert_eq!(back.value(i), seg.value(i));
        }
        // Deterministic encoding.
        assert_eq!(back.encode().expect("re-encode"), bytes);
    }

    #[test]
    fn point_probes_through_the_sparse_index() {
        let seg = sample_segment(500); // multiple blocks at stride 64
        assert_eq!(
            seg.point(&[Value::Int(3), Value::Int(4)]),
            Some(&AggOutput::Number(25.0))
        );
        assert_eq!(
            seg.point(&[Value::Int(0), Value::Int(0)]),
            Some(&AggOutput::Number(0.0))
        );
        let last = seg.len() - 1;
        let last_key = seg.key(last);
        assert_eq!(seg.point(&last_key), Some(seg.value(last)));
        // Keys beyond either end of the sorted rows: below the first row
        // (its values absent from the dictionary) and above the last row
        // (both values in their dictionaries).
        assert_eq!(last_key, vec![Value::Int(71), Value::Int(2)]);
        assert_eq!(seg.point(&[Value::Int(-1), Value::Int(0)]), None);
        assert_eq!(seg.point(&[Value::Int(71), Value::Int(6)]), None);
        // Absent values (not even in the dictionary) miss cheaply.
        assert_eq!(seg.point(&[Value::Int(999), Value::Int(0)]), None);
        // Wrong arity misses rather than panicking.
        assert_eq!(seg.point(&[Value::Int(1)]), None);
    }

    #[test]
    fn slice_rows_match_a_full_scan() {
        let seg = sample_segment(500);
        for v in [0i64, 3, 6] {
            let got = seg.slice_rows(1, &Value::Int(v));
            let expect: Vec<usize> = (0..seg.len())
                .filter(|&i| seg.key(i)[1] == Value::Int(v))
                .collect();
            assert_eq!(got, expect, "value {v}");
        }
        assert!(seg.slice_rows(1, &Value::Int(42)).is_empty());
        assert!(
            seg.slice_rows(9, &Value::Int(0)).is_empty(),
            "bad slot is empty, not a panic"
        );
    }

    #[test]
    fn apex_segment_has_no_columns() {
        let seg = Segment::build(3, Mask::EMPTY, vec![(Box::new([]), AggOutput::Number(7.0))]);
        assert_eq!(seg.len(), 1);
        assert_eq!(seg.point(&[]), Some(&AggOutput::Number(7.0)));
        let back = Segment::decode(&seg.encode().expect("encode")).expect("decode");
        assert_eq!(back.point(&[]), Some(&AggOutput::Number(7.0)));
    }

    #[test]
    fn empty_segment_round_trips() {
        let seg = Segment::build(2, Mask(0b01), Vec::new());
        assert!(seg.is_empty());
        let back = Segment::decode(&seg.encode().expect("encode")).expect("decode");
        assert!(back.is_empty());
        assert_eq!(back.point(&[Value::Int(1)]), None);
    }

    #[test]
    fn topk_values_survive_the_round_trip() {
        let rows = vec![(k(&[1]), AggOutput::TopK(vec![(2.0, 9), (1.0, 3)]))];
        let seg = Segment::build(1, Mask(0b1), rows);
        let back = Segment::decode(&seg.encode().expect("encode")).expect("decode");
        assert_eq!(back.value(0), &AggOutput::TopK(vec![(2.0, 9), (1.0, 3)]));
    }

    #[test]
    fn string_dimensions_round_trip() {
        let rows = vec![
            (
                vec![Value::str("Rome")].into_boxed_slice(),
                AggOutput::Number(1.0),
            ),
            (
                vec![Value::str("Paris")].into_boxed_slice(),
                AggOutput::Number(2.0),
            ),
        ];
        let seg = Segment::build(1, Mask(0b1), rows);
        let back = Segment::decode(&seg.encode().expect("encode")).expect("decode");
        assert_eq!(
            back.point(&[Value::str("Paris")]),
            Some(&AggOutput::Number(2.0))
        );
        assert_eq!(back.point(&[Value::str("Berlin")]), None);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample_segment(40).encode().expect("encode");
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                Segment::decode(&bad).is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn forged_blobs_are_rejected() {
        assert!(Segment::decode(b"").is_err());
        assert!(Segment::decode(b"CSEG1").is_err());
        let good = sample_segment(10).encode().expect("encode");
        assert!(Segment::decode(&good[..good.len() - 1]).is_err());
        let mut padded = good.clone();
        padded.insert(padded.len() - 8, 0);
        assert!(Segment::decode(&padded).is_err());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_rows_panic() {
        Segment::build(2, Mask(0b11), vec![(k(&[1]), AggOutput::Number(1.0))]);
    }
}
