//! Little-endian binary encoding, the building blocks of the durable
//! checkpoint format.
//!
//! Writers append to a `Vec<u8>`; an `f64` is written as its
//! `to_le_bytes`, so a value reads back with the same bits. Every
//! variable-length part is a `u64` element count followed by the
//! elements. [`Reader`] checks each count against the bytes left before
//! anything is allocated, so a hostile or truncated buffer is an `Err`,
//! never a panic or a huge allocation. Values with invariants are read
//! back through their checked constructors by the type that owns them.

/// Appends a `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` bit for bit.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an element count.
pub fn put_len(out: &mut Vec<u8>, n: usize) {
    put_u64(out, n as u64);
}

/// Appends a count-prefixed run of `f64`s.
pub fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    put_len(out, vs.len());
    for &v in vs {
        put_f64(out, v);
    }
}

/// A bounds-checked cursor over an encoded buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], String> {
        if self.rest.len() < N {
            return Err(format!(
                "truncated: {N} bytes wanted, {} left",
                self.rest.len()
            ));
        }
        let (head, tail) = self.rest.split_at(N);
        self.rest = tail;
        Ok(head.try_into().expect("split at N"))
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    /// When the buffer is exhausted.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take::<1>()?[0])
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    /// When fewer than 4 bytes are left.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    /// When fewer than 8 bytes are left.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    /// Reads an `f64` bit for bit (non-finite values included: the
    /// caller's constructor decides whether they are valid).
    ///
    /// # Errors
    /// When fewer than 8 bytes are left.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take()?))
    }

    /// Reads an element count, refusing one whose elements, at
    /// `min_elem_bytes` each, cannot fit in the bytes left.
    ///
    /// # Errors
    /// When the count is truncated or claims more than the buffer holds.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, String> {
        let n = self.u64()?;
        let fits = usize::try_from(n)
            .ok()
            .filter(|&n| n.saturating_mul(min_elem_bytes.max(1)) <= self.rest.len());
        fits.ok_or_else(|| format!("count {n} exceeds the {} bytes left", self.rest.len()))
    }

    /// Reads a count-prefixed run of `f64`s.
    ///
    /// # Errors
    /// When the run is truncated.
    pub fn f64s(&mut self) -> Result<Vec<f64>, String> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// Ends reading, refusing trailing bytes.
    ///
    /// # Errors
    /// When bytes are left over.
    pub fn finish(self) -> Result<(), String> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes", self.rest.len()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip_bit_for_bit() {
        let mut out = Vec::new();
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 3);
        for v in [-0.0, 1e-300, f64::NAN, f64::MIN_POSITIVE / 2.0] {
            put_f64(&mut out, v);
        }
        put_f64s(&mut out, &[0.5, -2.25]);
        let mut r = Reader::new(&out);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        for v in [-0.0, 1e-300, f64::NAN, f64::MIN_POSITIVE / 2.0] {
            assert_eq!(r.f64().unwrap().to_bits(), v.to_bits());
        }
        assert_eq!(r.f64s().unwrap(), vec![0.5, -2.25]);
        r.finish().unwrap();
    }

    #[test]
    fn counts_beyond_the_buffer_are_refused() {
        let mut out = Vec::new();
        put_len(&mut out, 3);
        put_f64(&mut out, 1.0);
        put_f64(&mut out, 2.0);
        assert!(Reader::new(&out).f64s().is_err(), "two of three elements");
        let mut huge = Vec::new();
        put_u64(&mut huge, u64::MAX);
        assert!(Reader::new(&huge).len(1).is_err());
        assert!(Reader::new(&huge).len(0).is_err(), "zero-size elements");
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let r = Reader::new(&[0]);
        assert!(r.finish().is_err());
        let mut r = Reader::new(&[1, 2]);
        assert!(r.u32().is_err());
    }
}
