//! A compact validity bitmap for nullable columns.

/// A growable bit vector; bit `i` is true when row `i` holds a present value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Creates an empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bitmap of `len` bits, all set to `value`.
    pub fn filled(len: usize, value: bool) -> Self {
        let word = if value { u64::MAX } else { 0 };
        let mut bitmap = Bitmap {
            words: vec![word; len.div_ceil(64)],
            len,
        };
        bitmap.trim_tail();
        bitmap
    }

    fn trim_tail(&mut self) {
        // Clear bits beyond `len` so `count_ones` stays exact.
        let tail_bits = self.len % 64;
        if tail_bits != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail_bits) - 1;
            }
        }
    }

    /// Number of bits stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one bit.
    pub fn push(&mut self, value: bool) {
        let word = self.len / 64;
        let bit = self.len % 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if value {
            self.words[word] |= 1 << bit;
        }
        self.len += 1;
    }

    /// Reads bit `index`.
    ///
    /// # Panics
    /// Panics when `index >= len`.
    pub fn get(&self, index: usize) -> bool {
        assert!(index < self.len, "bit {index} out of bounds ({})", self.len);
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when every bit is set.
    pub fn all(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Builds a bitmap holding `indices`-selected bits of `self`, in order.
    pub fn gather(&self, indices: &[usize]) -> Bitmap {
        let mut out = Bitmap::new();
        for &i in indices {
            out.push(self.get(i));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut bm = Bitmap::new();
        for i in 0..130 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 130);
        for i in 0..130 {
            assert_eq!(bm.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(bm.count_ones(), (0..130).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn filled_true_and_false() {
        let ones = Bitmap::filled(70, true);
        assert_eq!(ones.count_ones(), 70);
        assert!(ones.all());
        let zeros = Bitmap::filled(70, false);
        assert_eq!(zeros.count_ones(), 0);
        assert!(!zeros.all());
        assert!(Bitmap::filled(0, true).all());
    }

    #[test]
    fn gather_selects_in_order() {
        let mut bm = Bitmap::new();
        for b in [true, false, true, true, false] {
            bm.push(b);
        }
        let picked = bm.gather(&[4, 0, 2]);
        assert_eq!(picked.len(), 3);
        assert!(!picked.get(0));
        assert!(picked.get(1));
        assert!(picked.get(2));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Bitmap::new().get(0);
    }

    #[test]
    fn word_boundary_exactness() {
        let bm = Bitmap::filled(64, true);
        assert_eq!(bm.count_ones(), 64);
        let bm = Bitmap::filled(65, true);
        assert_eq!(bm.count_ones(), 65);
    }
}
