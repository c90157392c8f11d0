//! Arbitrary-width unsigned bit vectors.
//!
//! Qymera encodes an `n`-qubit basis state as the integer whose binary digits
//! are the qubit values (§2.1 of the paper). A 64-bit `INTEGER` column caps
//! circuits at 63 qubits, which is far below the sparse-circuit experiment in
//! the paper's introduction (thousands of qubits under a 2 GB budget).
//! `BigBits` is the engine's `HUGEINT`-style escape hatch: a fixed-width,
//! unsigned, little-endian word vector supporting exactly the operator set of
//! Table 1 (`&`, `|`, `~`, `<<`, `>>`) plus comparison, grouping, and
//! hex/decimal literal I/O.
//!
//! Width semantics: every `BigBits` carries an explicit bit width. Bitwise
//! binary operators produce `max` of the operand widths; `NOT` flips bits
//! within the operand's width (there is no "infinite sign extension" — the
//! translator always works with widths equal to the circuit's qubit count).
//! Equality, ordering, and hashing are *numeric*: they ignore width and
//! compare the represented unsigned integers, so `GROUP BY` keys behave like
//! plain integers.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Fixed-width unsigned big integer (little-endian 64-bit words).
#[derive(Debug, Clone, Eq)]
pub struct BigBits {
    /// Little-endian words. Invariant: `words.len() == ceil(width / 64)` and
    /// all bits at positions `>= width` are zero.
    words: Vec<u64>,
    /// Exact bit width of this value's domain.
    width: usize,
}

fn words_for(width: usize) -> usize {
    width.div_ceil(64).max(1)
}

impl BigBits {
    /// The zero value of the given width (width 0 is normalized to 1).
    pub fn zero(width: usize) -> Self {
        let width = width.max(1);
        BigBits { words: vec![0; words_for(width)], width }
    }

    /// Build from a `u64`, widening to at least the value's own bit length.
    pub fn from_u64(v: u64, width: usize) -> Self {
        let need = 64 - v.leading_zeros() as usize;
        let width = width.max(need).max(1);
        let mut b = BigBits::zero(width);
        b.words[0] = v;
        b.mask_top();
        b
    }

    /// Construct from little-endian words with an explicit width.
    pub fn from_words(mut words: Vec<u64>, width: usize) -> Self {
        let width = width.max(1);
        words.resize(words_for(width), 0);
        let mut b = BigBits { words, width };
        b.mask_top();
        b
    }

    /// Bit width of this value's domain.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Little-endian word view.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Zero out any bits at positions `>= width` (restores the invariant).
    fn mask_top(&mut self) {
        let rem = self.width % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        debug_assert_eq!(self.words.len(), words_for(self.width));
    }

    /// Widen (never narrow) to `width` bits, preserving the value.
    pub fn widened(&self, width: usize) -> Self {
        if width <= self.width {
            return self.clone();
        }
        let mut words = self.words.clone();
        words.resize(words_for(width), 0);
        BigBits { words, width }
    }

    /// The represented value if it fits in a `u64`.
    pub fn to_u64(&self) -> Option<u64> {
        if self.words.iter().skip(1).all(|&w| w == 0) {
            Some(self.words[0])
        } else {
            None
        }
    }

    /// The represented value if it fits in a nonnegative `i64`.
    pub fn to_i64(&self) -> Option<i64> {
        self.to_u64().and_then(|v| i64::try_from(v).ok())
    }

    /// Get bit `i` (false for `i >= width`).
    pub fn bit(&self, i: usize) -> bool {
        if i >= self.width {
            return false;
        }
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i` (no-op above width).
    pub fn set_bit(&mut self, i: usize, v: bool) {
        if i >= self.width {
            return;
        }
        let w = &mut self.words[i / 64];
        if v {
            *w |= 1u64 << (i % 64);
        } else {
            *w &= !(1u64 << (i % 64));
        }
    }

    /// True if the value is numerically zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of significant bits (position of highest set bit + 1; 0 if zero).
    pub fn bit_len(&self) -> usize {
        for (i, &w) in self.words.iter().enumerate().rev() {
            if w != 0 {
                return i * 64 + (64 - w.leading_zeros() as usize);
            }
        }
        0
    }

    fn binop(&self, other: &BigBits, f: impl Fn(u64, u64) -> u64) -> BigBits {
        let width = self.width.max(other.width);
        let word = |b: &BigBits, k: usize| b.words.get(k).copied().unwrap_or(0);
        let words = (0..words_for(width)).map(|k| f(word(self, k), word(other, k))).collect();
        BigBits::from_words(words, width)
    }

    /// Bitwise AND (result width = max of operand widths).
    pub fn and(&self, other: &BigBits) -> BigBits {
        self.binop(other, |a, b| a & b)
    }

    /// Bitwise OR.
    pub fn or(&self, other: &BigBits) -> BigBits {
        self.binop(other, |a, b| a | b)
    }

    /// Bitwise XOR.
    pub fn xor(&self, other: &BigBits) -> BigBits {
        self.binop(other, |a, b| a ^ b)
    }

    /// Bitwise NOT within this value's width.
    pub fn not(&self) -> BigBits {
        let words = self.words.iter().map(|&w| !w).collect();
        BigBits::from_words(words, self.width)
    }

    /// Left shift by `n`, *growing* the width by `n` so no bits are lost.
    pub fn shl(&self, n: usize) -> BigBits {
        let width = self.width + n;
        let mut out = BigBits::zero(width);
        let (wshift, bshift) = (n / 64, n % 64);
        for i in 0..self.words.len() {
            let lo = self.words[i] << bshift;
            out.words[i + wshift] |= lo;
            if bshift != 0 && i + wshift + 1 < out.words.len() {
                out.words[i + wshift + 1] |= self.words[i] >> (64 - bshift);
            }
        }
        out.mask_top();
        out
    }

    /// Logical right shift by `n` (width is preserved).
    pub fn shr(&self, n: usize) -> BigBits {
        if n >= self.width {
            return BigBits::zero(self.width);
        }
        let mut out = BigBits::zero(self.width);
        let (wshift, bshift) = (n / 64, n % 64);
        for i in wshift..self.words.len() {
            let v = self.words[i];
            out.words[i - wshift] |= v >> bshift;
            if bshift != 0 && i > wshift {
                out.words[i - wshift] |= 0; // covered below
            }
        }
        if bshift != 0 {
            // carry bits from the next word down
            for i in 0..out.words.len() {
                let src = i + wshift + 1;
                if src < self.words.len() {
                    out.words[i] |= self.words[src] << (64 - bshift);
                }
            }
        }
        out.mask_top();
        out
    }

    /// A mask of `count` ones starting at bit `lo`, in a domain of `width` bits.
    pub fn ones(lo: usize, count: usize, width: usize) -> BigBits {
        let mut b = BigBits::zero(width.max(lo + count));
        for i in lo..lo + count {
            b.set_bit(i, true);
        }
        b
    }

    /// Numeric comparison (unsigned), ignoring widths.
    pub fn cmp_value(&self, other: &BigBits) -> Ordering {
        let la = self.bit_len();
        let lb = other.bit_len();
        if la != lb {
            return la.cmp(&lb);
        }
        let n = self.words.len().max(other.words.len());
        for i in (0..n).rev() {
            let a = self.words.get(i).copied().unwrap_or(0);
            let b = other.words.get(i).copied().unwrap_or(0);
            match a.cmp(&b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Parse a hexadecimal string (no `0x` prefix) into a value whose width is
    /// four bits per digit.
    pub fn from_hex(s: &str) -> Option<BigBits> {
        if s.is_empty() {
            return None;
        }
        let width = s.len() * 4;
        let mut b = BigBits::zero(width);
        for (i, c) in s.bytes().rev().enumerate() {
            let d = (c as char).to_digit(16)? as u64;
            b.words[i / 16] |= d << ((i % 16) * 4);
        }
        b.mask_top();
        Some(b)
    }

    /// Parse a decimal string. Width is the minimal width holding the value.
    pub fn from_decimal(s: &str) -> Option<BigBits> {
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let mut words: Vec<u64> = vec![0];
        for b in s.bytes() {
            let d = (b - b'0') as u64;
            // words = words * 10 + d
            let mut carry = d as u128;
            for w in words.iter_mut() {
                let v = (*w as u128) * 10 + carry;
                *w = v as u64;
                carry = v >> 64;
            }
            if carry != 0 {
                words.push(carry as u64);
            }
        }
        let tmp = BigBits { width: words.len() * 64, words };
        let width = tmp.bit_len().max(1);
        Some(BigBits::from_words(tmp.words, width))
    }

    /// Lowercase hex rendering without a prefix (at least one digit).
    pub fn to_hex(&self) -> String {
        let mut s = String::new();
        let digits = self.width.div_ceil(4);
        for i in (0..digits).rev() {
            let d = (self.words[i / 16] >> ((i % 16) * 4)) & 0xf;
            if s.is_empty() && d == 0 && i != 0 {
                continue;
            }
            s.push(char::from_digit(d as u32, 16).unwrap());
        }
        if s.is_empty() {
            s.push('0');
        }
        s
    }

    /// Decimal rendering (O(n²/64) — fine for result display).
    pub fn to_decimal(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut words: Vec<u64> = self.words.clone();
        let mut digits = Vec::new();
        while words.iter().any(|&w| w != 0) {
            // divide words by 10, collecting remainder
            let mut rem: u128 = 0;
            for w in words.iter_mut().rev() {
                let cur = (rem << 64) | (*w as u128);
                *w = (cur / 10) as u64;
                rem = cur % 10;
            }
            digits.push(b'0' + rem as u8);
        }
        digits.reverse();
        String::from_utf8(digits).unwrap()
    }

    /// Approximate heap footprint in bytes (for the memory ledger).
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

impl PartialEq for BigBits {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_value(other) == Ordering::Equal
    }
}

impl Hash for BigBits {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash only significant words so equal values of different widths
        // collide, matching `PartialEq`.
        let sig = self.bit_len().div_ceil(64);
        for &w in &self.words[..sig] {
            w.hash(state);
        }
    }
}

impl PartialOrd for BigBits {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigBits {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_value(other)
    }
}

impl fmt::Display for BigBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.width <= 128 {
            write!(f, "{}", self.to_decimal())
        } else {
            write!(f, "0x{}", self.to_hex())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_from_u64() {
        let z = BigBits::zero(100);
        assert!(z.is_zero());
        assert_eq!(z.width(), 100);
        let v = BigBits::from_u64(0b1011, 100);
        assert_eq!(v.to_u64(), Some(11));
        assert!(v.bit(0) && v.bit(1) && !v.bit(2) && v.bit(3));
    }

    #[test]
    fn and_or_not_within_width() {
        let a = BigBits::from_u64(0b1100, 4);
        let b = BigBits::from_u64(0b1010, 4);
        assert_eq!(a.and(&b).to_u64(), Some(0b1000));
        assert_eq!(a.or(&b).to_u64(), Some(0b1110));
        assert_eq!(a.not().to_u64(), Some(0b0011));
    }

    #[test]
    fn not_respects_width() {
        let a = BigBits::zero(130);
        let n = a.not();
        assert_eq!(n.bit_len(), 130);
        assert!(n.bit(129));
        assert!(!n.bit(130));
    }

    #[test]
    fn shifts_across_word_boundaries() {
        let a = BigBits::from_u64(1, 1);
        let shifted = a.shl(200);
        assert!(shifted.bit(200));
        assert_eq!(shifted.bit_len(), 201);
        let back = shifted.shr(200);
        assert_eq!(back.to_u64(), Some(1));
        // shift by a non-multiple of 64
        let b = BigBits::from_u64(0b101, 3).shl(70);
        assert!(b.bit(70) && !b.bit(71) && b.bit(72));
        assert_eq!(b.shr(70).to_u64(), Some(0b101));
    }

    #[test]
    fn shr_carries_bits_down() {
        let mut a = BigBits::zero(192);
        a.set_bit(100, true);
        a.set_bit(5, true);
        let s = a.shr(3);
        assert!(s.bit(97));
        assert!(s.bit(2));
        assert_eq!(s.bit_len(), 98);
    }

    #[test]
    fn hex_round_trip() {
        let h = "deadbeefcafebabe1234567890abcdef00ff";
        let b = BigBits::from_hex(h).unwrap();
        assert_eq!(b.to_hex(), h);
        assert_eq!(b.width(), h.len() * 4);
    }

    #[test]
    fn decimal_round_trip_small_and_large() {
        for s in ["0", "1", "42", "18446744073709551616", "340282366920938463463374607431768211456"] {
            let b = BigBits::from_decimal(s).unwrap();
            assert_eq!(b.to_decimal(), s, "round trip failed for {s}");
        }
    }

    #[test]
    fn equality_ignores_width() {
        let a = BigBits::from_u64(42, 8);
        let b = BigBits::from_u64(42, 1000);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        let h = |x: &BigBits| {
            let mut s = DefaultHasher::new();
            x.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn ordering_is_numeric() {
        let a = BigBits::from_decimal("99999999999999999999").unwrap();
        let b = BigBits::from_u64(7, 2000);
        assert_eq!(a.cmp_value(&b), Ordering::Greater);
        assert_eq!(b.cmp_value(&a), Ordering::Less);
    }

    #[test]
    fn ones_mask() {
        let m = BigBits::ones(2, 3, 8);
        assert_eq!(m.to_u64(), Some(0b11100));
        let big = BigBits::ones(100, 2, 200);
        assert!(big.bit(100) && big.bit(101) && !big.bit(102) && !big.bit(99));
    }

    #[test]
    fn xor_and_set_bit() {
        let a = BigBits::from_u64(0b1111, 4);
        let b = BigBits::from_u64(0b0101, 4);
        assert_eq!(a.xor(&b).to_u64(), Some(0b1010));
        let mut c = BigBits::zero(4);
        c.set_bit(10, true); // above width: no-op
        assert!(c.is_zero());
    }
}
